// The AVX2 kernel variant's byte-identity contract.
//
// The scalar tile is the normative reference; the AVX2 wave must produce
// byte-identical cost AND best_action tables on every instance — same
// IEEE results (memcmp, not tolerance), same strict-< lowest-index
// tie-breaks. These tests force each variant through set_kernel_variant()
// and compare raw table bytes across:
//
//   * randomized instances over the full k = 1..16 range,
//   * tie-heavy integer-cost instances (where a sloppy blend order would
//     silently pick a different argmin),
//   * extreme weight magnitudes (1e-12 .. 1e12 — association-order drift
//     shows up here first),
//   * action mixes skewed to all-tests-but-singleton-cures and
//     treatments-only,
//   * direct eval_states calls on sub-spans of size 1..7 (remainder-lane
//     boundaries: AVX2 handles groups of 4, the tail must route through
//     the scalar tile),
//   * all six table-building backends (sequential, threads state/pair,
//     hypercube, ccc, state_parallel) under each forced variant.
//
// AVX2 cases are guarded on kernel_avx2_available(), so on hosts or builds
// without AVX2 only the scalar cases run. Every test restores
// auto-dispatch on exit so suite order cannot leak a pinned variant.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tt/generator.hpp"
#include "tt/kernel.hpp"
#include "tt/solver_ccc.hpp"
#include "tt/solver_hypercube.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/solver_state_parallel.hpp"
#include "tt/solver_threads.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ttp::tt {
namespace {

/// RAII: pin a variant for one scope, restore auto-dispatch after.
class VariantGuard {
 public:
  explicit VariantGuard(const char* spec) {
    ok_ = set_kernel_variant(spec);
  }
  ~VariantGuard() { set_kernel_variant("auto"); }
  bool ok() const noexcept { return ok_; }

 private:
  bool ok_;
};

/// The SIMD variants this host can run: "avx2" when compiled in and the
/// CPU reports it, none otherwise.
std::vector<const char*> simd_variants() {
  std::vector<const char*> v;
  if (kernel_avx2_available()) v.push_back("avx2");
  return v;
}

DpTable solve_table_with(const char* variant, const Instance& ins) {
  VariantGuard guard(variant);
  EXPECT_TRUE(guard.ok()) << variant;
  SolveArena arena;
  return solve_with_arena(ins, arena).table;
}

/// memcmp, not EXPECT_DOUBLE_EQ and not even ==: the contract is identical
/// BYTES (a -0.0 vs +0.0 drift would pass ==, and NaN would pass nothing).
void expect_bytes_identical(const DpTable& ref, const DpTable& got,
                            const std::string& what) {
  ASSERT_EQ(ref.cost.size(), got.cost.size()) << what;
  EXPECT_EQ(std::memcmp(ref.cost.data(), got.cost.data(),
                        ref.cost.size() * sizeof(double)),
            0)
      << what << ": cost tables differ";
  EXPECT_EQ(ref.best_action, got.best_action)
      << what << ": argmin tables differ";
}

void expect_all_variants_identical(const Instance& ins,
                                   const std::string& what) {
  const DpTable ref = solve_table_with("scalar", ins);
  for (const char* v : simd_variants()) {
    expect_bytes_identical(ref, solve_table_with(v, ins),
                           what + " [" + v + "]");
  }
}

Instance random_for(std::uint64_t seed, int k) {
  util::Rng rng(seed * 7919 + 13);
  RandomOptions opt;
  opt.num_tests = 4 + static_cast<int>(seed % 5);
  opt.num_treatments = 3 + static_cast<int>(seed % 4);
  return random_instance(k, opt, rng);
}

TEST(KernelSimd, ByteIdentityRandomizedAcrossAllK) {
  // k = 1..16: covers empty-ish layers, layers smaller than one vector,
  // layers far larger than the 16-state unrolled block, and tables from
  // one cache line to 512 KiB.
  for (int k = 1; k <= 16; ++k) {
    const int seeds = k <= 12 ? 3 : 1;  // keep big-k runtime bounded
    for (int s = 0; s < seeds; ++s) {
      expect_all_variants_identical(
          random_for(static_cast<std::uint64_t>(k * 10 + s), k),
          "k=" + std::to_string(k) + " seed=" + std::to_string(s));
    }
  }
}

TEST(KernelSimd, ByteIdentityTieHeavyIntegerCosts) {
  // Unit costs + uniform priors: nearly every state has multiple actions
  // attaining the minimum, so any deviation from strict-< ascending-index
  // blending flips an argmin.
  for (int k : {4, 5, 6, 8}) {
    Instance ins(k, std::vector<double>(static_cast<std::size_t>(k), 1.0));
    const Mask full = util::universe(k);
    for (Mask s = 1; s < full; ++s) ins.add_test(s, 1.0);
    for (int j = 0; j < k; ++j) ins.add_treatment(util::bit(j), 1.0);
    expect_all_variants_identical(ins, "all-subsets k=" + std::to_string(k));
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    RandomOptions opt;
    opt.num_tests = 6;
    opt.num_treatments = 5;
    opt.integer_costs = true;
    opt.max_cost = 2.0;  // costs in {1, 2}: dense ties, not only ties
    expect_all_variants_identical(random_instance(9, opt, rng),
                                  "int-cost seed=" + std::to_string(seed));
  }
}

TEST(KernelSimd, ByteIdentityExtremeWeightMagnitudes) {
  // Weights spanning 24 orders of magnitude: t_i·p(S) + C(...) mixes tiny
  // and huge addends, where any re-association between variants would
  // produce different rounding.
  for (int k : {6, 10}) {
    std::vector<double> w(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      w[static_cast<std::size_t>(j)] =
          (j % 2 == 0) ? 1e-12 * (j + 1) : 1e12 / (j + 1);
    }
    Instance ins(k, std::move(w));
    util::Rng rng(static_cast<std::uint64_t>(k));
    for (int i = 0; i < 6; ++i) {
      const Mask s = static_cast<Mask>(
          rng.uniform(1, (std::uint64_t{1} << k) - 2));
      ins.add_test(s, 0.25 * (i + 1));
    }
    for (int j = 0; j < k; ++j) {
      ins.add_treatment(util::bit(j), 1e6 / (j + 1));
    }
    expect_all_variants_identical(ins, "extreme-weights k=" +
                                           std::to_string(k));
  }
}

TEST(KernelSimd, ByteIdentitySkewedActionMixes) {
  // Treatments only: every state solved by the treatment arm of the
  // recurrence (the tests arm never runs).
  {
    Instance ins(6, {0.3, 0.1, 0.25, 0.05, 0.2, 0.1});
    const Mask full = util::universe(6);
    for (Mask s = 1; s <= full; ++s) {
      ins.add_treatment(s, 1.0 + 0.01 * static_cast<double>(s % 7));
    }
    expect_all_variants_identical(ins, "treatments-only");
  }
  // Test-dominant: every non-trivial subset as a test, singleton cures
  // only — the tests arm dominates every minimization.
  {
    Instance ins(6, {1, 2, 3, 4, 5, 6});
    const Mask full = util::universe(6);
    for (Mask s = 1; s < full; ++s) {
      ins.add_test(s, 0.5 + 0.001 * static_cast<double>(s));
    }
    for (int j = 0; j < 6; ++j) ins.add_treatment(util::bit(j), 100.0);
    expect_all_variants_identical(ins, "test-dominant");
  }
}

TEST(KernelSimd, RemainderLaneBoundaries) {
  // Drive eval_states directly on sub-spans of every size 1..7 (SIMD
  // blocks are 4 states; 1..3 are pure scalar-tail, 5..7 mixed) and on
  // every odd-sized layer of a k=5 universe, comparing against the scalar
  // variant on the same span.
  const Instance ins = random_for(99, 5);
  ins.check();
  const std::vector<double>& wt = ins.subset_weight_table();
  ActionSoA soa;
  soa.build(ins);
  LayerIndex layers;
  layers.build(5);
  const std::size_t states = std::size_t{1} << 5;

  // Finalized lower layers to read from: the scalar-solved full table.
  const DpTable ref = solve_table_with("scalar", ins);

  for (const char* v : simd_variants()) {
    for (int j = 1; j <= 5; ++j) {
      const auto layer = layers.layer(j);
      for (std::size_t len = 1; len <= layer.size(); ++len) {
        for (std::size_t off = 0; off + len <= layer.size();
             off += (len > 2 ? len : 1)) {
          std::vector<double> cost_s(ref.cost), cost_v(ref.cost);
          std::vector<int> best_s(ref.best_action), best_v(ref.best_action);
          {
            VariantGuard guard("scalar");
            eval_states(soa, wt.data(), layer.data() + off, len,
                        cost_s.data(), best_s.data());
          }
          {
            VariantGuard guard(v);
            ASSERT_TRUE(guard.ok());
            eval_states(soa, wt.data(), layer.data() + off, len,
                        cost_v.data(), best_v.data());
          }
          ASSERT_EQ(std::memcmp(cost_s.data(), cost_v.data(),
                                states * sizeof(double)),
                    0)
              << v << " j=" << j << " off=" << off << " len=" << len;
          ASSERT_EQ(best_s, best_v)
              << v << " j=" << j << " off=" << off << " len=" << len;
        }
      }
    }
  }
}

TEST(KernelSimd, ForcedVariantDeterminismAcrossAllBackends) {
  // The strong cross-backend contract of test_determinism.cpp, under every
  // forced variant: all six table-building backends must reproduce the
  // scalar sequential tables byte for byte.
  util::Rng rng(7);
  RandomOptions opt;
  opt.num_tests = 6;
  opt.num_treatments = 5;
  opt.integer_costs = true;
  opt.max_cost = 1.0;  // unit costs: maximal tie pressure
  const Instance ins = random_instance(6, opt, rng);
  const DpTable ref = solve_table_with("scalar", ins);

  std::vector<const char*> variants{"scalar"};
  for (const char* v : simd_variants()) variants.push_back(v);
  for (const char* v : variants) {
    VariantGuard guard(v);
    ASSERT_TRUE(guard.ok());
    struct Backend {
      const char* name;
      SolveResult res;
    };
    const std::vector<Backend> backends = {
        {"sequential", SequentialSolver().solve(ins)},
        {"threads(1)", ThreadsSolver(1).solve(ins)},
        {"threads(3)", ThreadsSolver(3).solve(ins)},
        {"threads-pair(2)",
         ThreadsSolver(2, ThreadsSolver::Mode::kPairParallel).solve(ins)},
        {"hypercube", HypercubeSolver().solve(ins)},
        {"ccc", CccSolver().solve(ins)},
        {"state_parallel", StateParallelSolver().solve(ins)},
    };
    for (const Backend& b : backends) {
      expect_bytes_identical(ref, b.res.table,
                             std::string(v) + "/" + b.name);
    }
  }
}

TEST(KernelSimd, VariantResolutionAndForcing) {
  // Every spec resolves (or cleanly refuses); active name tracks the pin.
  EXPECT_TRUE(set_kernel_variant("scalar"));
  EXPECT_EQ(active_kernel_variant(), KernelVariant::kScalar);
  EXPECT_EQ(active_kernel_variant_name(), "scalar");
  if (kernel_avx2_available()) {
    EXPECT_TRUE(set_kernel_variant("avx2"));
    EXPECT_EQ(active_kernel_variant(), KernelVariant::kSimdAvx2);
    EXPECT_EQ(active_kernel_variant_name(), "simd-avx2");
  } else {
    // Unavailable pin: refused AND the previous variant is untouched.
    EXPECT_FALSE(set_kernel_variant("avx2"));
    EXPECT_EQ(active_kernel_variant(), KernelVariant::kScalar);
  }
  // The retired "portable" and "simd" specs are refused like any unknown
  // one, and leave the pinned variant alone.
  const KernelVariant pinned = active_kernel_variant();
  for (const char* spec : {"portable", "simd", "no-such-variant", ""}) {
    EXPECT_FALSE(set_kernel_variant(spec)) << spec;
    EXPECT_EQ(active_kernel_variant(), pinned) << spec;
  }
  EXPECT_TRUE(set_kernel_variant("auto"));
  EXPECT_EQ(active_kernel_variant(), kernel_avx2_available()
                                         ? KernelVariant::kSimdAvx2
                                         : KernelVariant::kScalar);
}

TEST(KernelSimd, AlignedBufAlignmentAndNoCopyGrowth) {
  AlignedBuf<double> buf;
  buf.resize_discard(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                AlignedBuf<double>::kAlign,
            0u);
  EXPECT_EQ(buf.size(), 3u);
  double* grown = nullptr;
  buf.resize_discard(1000);
  grown = buf.data();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(grown) %
                AlignedBuf<double>::kAlign,
            0u);
  EXPECT_EQ(buf.size(), 1000u);
  // Shrinking (and regrowing within capacity) never reallocates.
  buf.resize_discard(10);
  EXPECT_EQ(buf.data(), grown);
  buf.resize_discard(1000);
  EXPECT_EQ(buf.data(), grown);
}

TEST(KernelSimd, ArenaReuseAcrossNonMonotoneKUnderEachVariant) {
  std::vector<const char*> variants{"scalar"};
  for (const char* v : simd_variants()) variants.push_back(v);
  for (const char* v : variants) {
    VariantGuard guard(v);
    ASSERT_TRUE(guard.ok());
    SolveArena arena;
    for (int round = 0; round < 2; ++round) {
      for (int k : {8, 12, 5, 10}) {  // deliberately non-monotone
        const Instance ins = random_for(
            static_cast<std::uint64_t>(round * 100 + k), k);
        const DpTable ref = solve_table_with("scalar", ins);
        VariantGuard repin(v);  // solve_table_with restored auto
        const auto res = solve_with_arena(ins, arena);
        expect_bytes_identical(ref, res.table,
                               std::string(v) + " round " +
                                   std::to_string(round) + " k=" +
                                   std::to_string(k));
      }
    }
  }
}

}  // namespace
}  // namespace ttp::tt
