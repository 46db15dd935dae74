// The layer-wave kernel: the scalar tile both waves run, variant
// resolution, the pair phase, and the arena solve loop. Compiled with
// -ffp-contract=off (src/CMakeLists.txt) so no multiply/add pair contracts
// into an FMA that the AVX2 path does not also perform.
#include "tt/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>

#include "obs/trace.hpp"
#include "tt/kernel_sparse.hpp"
#include "util/bits.hpp"

namespace ttp::tt {

void ActionSoA::build(const Instance& ins) {
  const std::size_t n = static_cast<std::size_t>(ins.num_actions());
  set.resize(n);
  nset.resize(n);
  cost.resize(n);
  is_test.resize(n);
  num_tests = ins.num_tests();
  num_actions = ins.num_actions();
  for (std::size_t i = 0; i < n; ++i) {
    const Action& a = ins.action(static_cast<int>(i));
    set[i] = a.set;
    nset[i] = ~a.set;
    cost[i] = a.cost;
    is_test[i] = a.is_test ? 1 : 0;
  }
}

void LayerIndex::build(int k) {
  k_ = k;
  const std::size_t states = std::size_t{1} << k;
  masks_.resize(states);
  offsets_.assign(static_cast<std::size_t>(k) + 2, 0);
  for (std::size_t s = 0; s < states; ++s) {
    ++offsets_[static_cast<std::size_t>(util::popcount(static_cast<Mask>(s))) +
               1];
  }
  for (std::size_t j = 1; j < offsets_.size(); ++j) {
    offsets_[j] += offsets_[j - 1];
  }
  // Stable counting sort over ascending s keeps each layer ascending, the
  // order util::layer_subsets produces and the tests pin down.
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t s = 0; s < states; ++s) {
    const int j = util::popcount(static_cast<Mask>(s));
    masks_[cursor[static_cast<std::size_t>(j)]++] = static_cast<Mask>(s);
  }
}

void SolveArena::prepare_tables(std::size_t states) {
  cost_.resize_discard(states);
  best_.resize_discard(states);
  std::fill_n(cost_.data(), states, kInf);
  std::fill_n(best_.data(), states, -1);
  cost_.data()[0] = 0.0;
}

namespace {

// The scalar tile, shared by the dense and the sparse wave. The two
// differ in exactly three places, which the Rows policy supplies for tile
// position t holding state mask s:
//
//   rows.ps(t, s)               p(S)
//   rows.inter(i, t, S∩T_i)     table index of C(S∩T_i)
//   rows.minus(i, t, S−T_i)     table index of C(S−T_i)
//   rows.out(t, s)              table index the result is written to
//
// Validity is always recomputed from the masks, so an invalid split's
// index may point at any finalized entry (the sparse rows use slot 0).

/// Dense tables are indexed by mask: a child's index is S∩T_i / S−T_i
/// itself, p(S) is wt[S], and S's result lands at index S.
struct MaskRows {
  const double* wt;
  double ps(std::size_t, Mask s) const { return wt[s]; }
  Mask inter(std::size_t, std::size_t, Mask im) const { return im; }
  Mask minus(std::size_t, std::size_t, Mask mm) const { return mm; }
  std::size_t out(std::size_t, Mask s) const { return s; }
};

/// Sparse tables are indexed by closure slot: position t reads p(S) from
/// ws[t] and its children's slots from the action-major rows (row i
/// starts at i·stride), and writes slot `slot + t`.
struct SlotRows {
  const double* ws;
  const std::uint32_t* ir;
  const std::uint32_t* mr;
  std::size_t stride;
  std::size_t slot;
  double ps(std::size_t t, Mask) const { return ws[t]; }
  std::uint32_t inter(std::size_t i, std::size_t t, Mask) const {
    return ir[i * stride + t];
  }
  std::uint32_t minus(std::size_t i, std::size_t t, Mask) const {
    return mr[i * stride + t];
  }
  std::size_t out(std::size_t t, Mask) const { return slot + t; }
};

/// One tile: `m` states against every action, tests first then treatments
/// (two branch-free runs), running best/argmin held in stack arrays.
template <class Rows>
void eval_tile(const ActionSoA& a, const Rows rows,
               const Mask* __restrict states, std::size_t m,
               double* __restrict cost, int* __restrict best) {
  Mask s_arr[kKernelTile];
  double ws[kKernelTile];
  double bv[kKernelTile];
  int bi[kKernelTile];
  for (std::size_t t = 0; t < m; ++t) {
    s_arr[t] = states[t];
    ws[t] = rows.ps(t, s_arr[t]);
    bv[t] = kInf;
    bi[t] = -1;
  }
  for (int i = 0; i < a.num_tests; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    const Mask ts = a.set[ui];
    const Mask tn = a.nset[ui];
    const double tc = a.cost[ui];
    for (std::size_t t = 0; t < m; ++t) {
      const Mask s = s_arr[t];
      const Mask inter = s & ts;
      const Mask minus = s & tn;
      // Invalid splits read cost[∅] == 0 or the state's own still-kInf
      // entry — finite-or-inf either way, never NaN — so the select after
      // the arithmetic gives the same value action_value's early returns
      // produce.
      double v = m_test_value(tc, ws[t], cost[rows.inter(ui, t, inter)],
                              cost[rows.minus(ui, t, minus)]);
      v = ((inter == 0) | (minus == 0)) ? kInf : v;
      const bool lt = v < bv[t];
      bv[t] = lt ? v : bv[t];
      bi[t] = lt ? i : bi[t];
    }
  }
  for (int i = a.num_tests; i < a.num_actions; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    const Mask ts = a.set[ui];
    const Mask tn = a.nset[ui];
    const double tc = a.cost[ui];
    for (std::size_t t = 0; t < m; ++t) {
      const Mask s = s_arr[t];
      const Mask inter = s & ts;
      const Mask minus = s & tn;
      double v = m_treat_value(tc, ws[t], cost[rows.minus(ui, t, minus)]);
      v = inter == 0 ? kInf : v;
      const bool lt = v < bv[t];
      bv[t] = lt ? v : bv[t];
      bi[t] = lt ? i : bi[t];
    }
  }
  for (std::size_t t = 0; t < m; ++t) {
    cost[rows.out(t, s_arr[t])] = bv[t];
    best[rows.out(t, s_arr[t])] = bi[t];
  }
}

}  // namespace

namespace detail {

void eval_tile_scalar(const ActionSoA& a, const double* wt, const Mask* states,
                      std::size_t m, double* cost, int* best) {
  eval_tile(a, MaskRows{wt}, states, m, cost, best);
}

}  // namespace detail

std::uint64_t eval_states_sparse(const ActionSoA& a, const Mask* states,
                                 const double* ws, const std::uint32_t* inter,
                                 const std::uint32_t* minus, std::size_t stride,
                                 std::size_t count, double* cost, int* best,
                                 std::size_t slot_base) {
  for (std::size_t base = 0; base < count; base += kKernelTile) {
    const std::size_t m = std::min(kKernelTile, count - base);
    eval_tile(a,
              SlotRows{ws + base, inter + base, minus + base, stride,
                       slot_base + base},
              states + base, m, cost, best);
  }
  return static_cast<std::uint64_t>(count) *
         static_cast<std::uint64_t>(a.num_actions);
}

// ---------------------------------------------------------------------------
// Variant resolution

namespace {

/// What "auto" (and an unset TTP_KERNEL) means: AVX2 when it can run.
KernelVariant best_variant() noexcept {
  return kernel_avx2_available() ? KernelVariant::kSimdAvx2
                                 : KernelVariant::kScalar;
}

/// TTP_KERNEL (or a set_kernel_variant spec) -> variant; nullopt for an
/// unavailable or unrecognized request.
std::optional<KernelVariant> variant_for_spec(std::string_view spec) noexcept {
  if (spec == "scalar") return KernelVariant::kScalar;
  if (spec == "avx2") {
    if (kernel_avx2_available()) return KernelVariant::kSimdAvx2;
    return std::nullopt;
  }
  if (spec == "auto") return best_variant();
  return std::nullopt;
}

constexpr int kUnresolved = -1;
std::atomic<int> g_variant{kUnresolved};

}  // namespace

bool kernel_avx2_available() noexcept {
#if defined(TTP_KERNEL_HAS_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// First use consults TTP_KERNEL and falls back to the best variant the
/// CPU supports. An unrecognized value degrades to auto rather than
/// aborting a serving binary at startup.
KernelVariant active_kernel_variant() noexcept {
  const int v = g_variant.load(std::memory_order_acquire);
  if (v != kUnresolved) return static_cast<KernelVariant>(v);
  const char* env = std::getenv("TTP_KERNEL");
  const KernelVariant resolved =
      variant_for_spec(env != nullptr ? env : "auto").value_or(best_variant());
  // Concurrent first calls may race to store; every candidate store is a
  // valid resolution of the same environment, so last-writer-wins is fine.
  g_variant.store(static_cast<int>(resolved), std::memory_order_release);
  return resolved;
}

std::string_view kernel_variant_name(KernelVariant v) noexcept {
  switch (v) {
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kSimdAvx2:
      return "simd-avx2";
  }
  return "unknown";
}

std::string_view active_kernel_variant_name() noexcept {
  return kernel_variant_name(active_kernel_variant());
}

bool set_kernel_variant(std::string_view spec) noexcept {
  const std::optional<KernelVariant> v = variant_for_spec(spec);
  if (!v) return false;
  g_variant.store(static_cast<int>(*v), std::memory_order_release);
  return true;
}

// ---------------------------------------------------------------------------
// Public entry points

std::uint64_t eval_states(const ActionSoA& a, const double* wt,
                          const Mask* states, std::size_t count, double* cost,
                          int* best) {
  TTP_TRACE_SPAN(wave_span, "kernel.wave");
  wave_span.attr("states", static_cast<std::uint64_t>(count));
  wave_span.attr("actions", a.num_actions);
  TTP_METRIC_ADD("kernel.waves", 1);
  TTP_METRIC_HIST("kernel.wave_states", count);
  const std::uint64_t evals = static_cast<std::uint64_t>(count) *
                              static_cast<std::uint64_t>(a.num_actions);
#if defined(TTP_KERNEL_HAS_AVX2)
  if (active_kernel_variant() == KernelVariant::kSimdAvx2) {
    detail::eval_states_avx2(a, wt, states, count, cost, best);
    return evals;
  }
#endif
  for (std::size_t base = 0; base < count; base += kKernelTile) {
    const std::size_t m = std::min(kKernelTile, count - base);
    TTP_TRACE_SPAN(tile_span, "kernel.tile");
    tile_span.attr("base", static_cast<std::uint64_t>(base));
    tile_span.attr("states", static_cast<std::uint64_t>(m));
    eval_tile(a, MaskRows{wt}, states + base, m, cost, best);
  }
  return evals;
}

void eval_pairs(const ActionSoA& a, const double* wt, const double* cost,
                const Mask* states, std::size_t begin, std::size_t end,
                double* m) {
  TTP_TRACE_SPAN(span, "kernel.pairs");
  span.attr("pairs", static_cast<std::uint64_t>(end - begin));
  const std::size_t n = static_cast<std::size_t>(a.num_actions);
  std::size_t pos = begin / n;
  std::size_t i = begin % n;
  for (std::size_t idx = begin; idx < end; ++idx) {
    const Mask s = states[pos];
    const Mask inter = s & a.set[i];
    const Mask minus = s & a.nset[i];
    double v;
    if (i < static_cast<std::size_t>(a.num_tests)) {
      v = m_test_value(a.cost[i], wt[s], cost[inter], cost[minus]);
      v = (inter == 0 || minus == 0) ? kInf : v;
    } else {
      v = m_treat_value(a.cost[i], wt[s], cost[minus]);
      v = inter == 0 ? kInf : v;
    }
    m[idx] = v;
    if (++i == n) {
      i = 0;
      ++pos;
    }
  }
}

void reduce_pairs(const ActionSoA& a, const double* m, const Mask* states,
                  std::size_t begin, std::size_t end, double* cost, int* best) {
  TTP_TRACE_SPAN(span, "kernel.reduce");
  span.attr("states", static_cast<std::uint64_t>(end - begin));
  const std::size_t n = static_cast<std::size_t>(a.num_actions);
  for (std::size_t pos = begin; pos < end; ++pos) {
    const double* row = m + pos * n;
    double bv = kInf;
    int bi = -1;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = row[i];
      const bool lt = v < bv;
      bv = lt ? v : bv;
      bi = lt ? static_cast<int>(i) : bi;
    }
    cost[states[pos]] = bv;
    best[states[pos]] = bi;
  }
}

SolveResult solve_with_arena(const Instance& ins, SolveArena& arena,
                             [[maybe_unused]] std::string_view span_name) {
  ins.check();
  SolveResult res;
  const int k = ins.k();
  const int N = ins.num_actions();
  const std::size_t states = std::size_t{1} << k;
  const std::vector<double>& wt = ins.subset_weight_table();

  TTP_TRACE_SPAN(root_span, span_name, res.steps);
  root_span.attr("k", k);
  root_span.attr("actions", N);
  root_span.attr("kernel", active_kernel_variant_name());

  const LayerIndex& layers = arena.layers(k);
  const ActionSoA& soa = arena.actions(ins);
  arena.prepare_tables(states);
  double* cost = arena.cost();
  int* best = arena.best();

  for (int j = 1; j <= k; ++j) {
    TTP_TRACE_SPAN(layer_span, "layer", res.steps);
    layer_span.attr("j", j);
    const std::span<const Mask> layer = layers.layer(j);
    const std::uint64_t evals =
        eval_states(soa, wt.data(), layer.data(), layer.size(), cost, best);
    // Sequential cost model: one parallel step per M-evaluation.
    res.steps.charge(evals, evals);
  }

  TTP_METRIC_ADD(std::string("kernel.solves.") +
                     std::string(active_kernel_variant_name()),
                 1);
  res.table.k = k;
  res.table.cost.assign(arena.cost(), arena.cost() + states);
  res.table.best_action.assign(arena.best(), arena.best() + states);
  res.cost = res.table.root_cost();
  res.tree = reconstruct_tree(ins, res.table);
  res.breakdown.add("m_evaluations", res.steps.total_ops);
  return res;
}

}  // namespace ttp::tt
