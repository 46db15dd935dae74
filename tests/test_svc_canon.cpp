// Canonical instance keying: semantically identical requests collide,
// different problems do not, and cached canonical results translate back
// into the requester's coordinates.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <unordered_set>

#include "svc/canon.hpp"
#include "tt/generator.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/validate.hpp"
#include "util/rng.hpp"

namespace ttp::svc {
namespace {

using tt::Instance;
using util::bit;

Instance shuffled_renamed_scaled(double scale) {
  // fig1_example with actions reordered within groups, fresh names, and all
  // weights multiplied by `scale` — the same problem, differently spelled.
  Instance ins(4, {0.4 * scale, 0.3 * scale, 0.2 * scale, 0.1 * scale});
  ins.add_test(bit(0) | bit(2), 1.5, "secondTest");
  ins.add_test(bit(0) | bit(1), 1.0, "firstTest");
  ins.add_treatment(bit(2) | bit(3), 2.5, "z");
  ins.add_treatment(bit(0), 2.0, "y");
  ins.add_treatment(bit(1) | bit(2), 3.0, "x");
  return ins;
}

TEST(SvcCanon, Hash128IsStableAndSensitive) {
  const CanonKey a = hash128("tt 4\n");
  EXPECT_EQ(a, hash128("tt 4\n"));
  EXPECT_NE(a, hash128("tt 5\n"));
  EXPECT_NE(a, hash128("tt 4"));
  EXPECT_NE(hash128(""), CanonKey{});
  // hi and lo are independent mixes: flipping one byte changes both.
  const CanonKey b = hash128("tt 5\n");
  EXPECT_NE(a.hi, b.hi);
  EXPECT_NE(a.lo, b.lo);
  EXPECT_EQ(a.hex().size(), 32u);
  EXPECT_NE(a.hex(), b.hex());
}

TEST(SvcCanon, EquivalentSpellingsCollide) {
  const Canonical base = canonicalize(tt::fig1_example());
  for (const double scale : {1.0, 2.0, 8.0, 0.5}) {
    const Canonical other = canonicalize(shuffled_renamed_scaled(scale));
    EXPECT_EQ(base.key, other.key) << "scale=" << scale;
    EXPECT_DOUBLE_EQ(other.weight_scale, scale);
  }
}

TEST(SvcCanon, DistinctProblemsGetDistinctKeys) {
  util::Rng rng(7);
  std::unordered_set<std::string> keys;
  for (int i = 0; i < 50; ++i) {
    tt::RandomOptions opt;
    opt.num_tests = 3 + i % 3;
    opt.num_treatments = 4;
    keys.insert(canonicalize(tt::random_instance(5 + i % 3, opt, rng)).key.hex());
  }
  EXPECT_EQ(keys.size(), 50u);
}

TEST(SvcCanon, CostChangesTheKey) {
  Instance a = tt::fig1_example();
  Instance b = tt::fig1_example();
  Instance c(4, {0.4, 0.3, 0.2, 0.1});
  c.add_test(bit(0) | bit(1), 1.0 + 1e-9, "testAB");  // one cost nudged
  c.add_test(bit(0) | bit(2), 1.5, "testAC");
  c.add_treatment(bit(0), 2.0, "cureA");
  c.add_treatment(bit(1) | bit(2), 3.0, "cureBC");
  c.add_treatment(bit(2) | bit(3), 2.5, "cureCD");
  EXPECT_EQ(canonicalize(a).key, canonicalize(b).key);
  EXPECT_NE(canonicalize(a).key, canonicalize(c).key);
}

TEST(SvcCanon, TestTreatmentKindIsPartOfTheKey) {
  // Same sets and costs, but one action flips kind: different problem.
  Instance a(2, {0.5, 0.5});
  a.add_test(bit(0), 1.0);
  a.add_treatment(bit(0) | bit(1), 1.0);
  Instance b(2, {0.5, 0.5});
  b.add_treatment(bit(0), 1.0);
  b.add_treatment(bit(0) | bit(1), 1.0);
  EXPECT_NE(canonicalize(a).key, canonicalize(b).key);
}

TEST(SvcCanon, MappingTranslatesCanonicalActionsToOriginal) {
  const Instance original = shuffled_renamed_scaled(3.0);
  const Canonical canon = canonicalize(original);
  ASSERT_EQ(canon.to_original.size(),
            static_cast<std::size_t>(original.num_actions()));
  for (int i = 0; i < canon.instance.num_actions(); ++i) {
    const tt::Action& c = canon.instance.action(i);
    const tt::Action& o =
        original.action(canon.to_original[static_cast<std::size_t>(i)]);
    EXPECT_EQ(c.set, o.set) << i;
    EXPECT_EQ(c.cost, o.cost) << i;
    EXPECT_EQ(c.is_test, o.is_test) << i;
  }
  // Canonical weights are normalized to sum 1.
  double sum = 0.0;
  for (int j = 0; j < canon.instance.k(); ++j) sum += canon.instance.weight(j);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(canon.weight_scale, 3.0);
}

TEST(SvcCanon, RemappedTreeIsOptimalForTheOriginal) {
  util::Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    tt::RandomOptions opt;
    opt.num_tests = 4;
    opt.num_treatments = 5;
    const Instance original = tt::random_instance(6, opt, rng);
    const Canonical canon = canonicalize(original);

    const auto canon_res = tt::SequentialSolver().solve(canon.instance);
    const tt::Tree remapped =
        remap_tree_actions(canon_res.tree, canon.to_original);
    const double original_cost = canon_res.cost * canon.weight_scale;

    // The remapped tree must be a valid procedure for the ORIGINAL instance
    // achieving the (rescaled) canonical cost...
    const auto report =
        tt::validate_tree(original, remapped, original_cost, 1e-9);
    EXPECT_TRUE(report.ok) << (report.errors.empty() ? ""
                                                     : report.errors.front());
    // ...and that cost must equal the original's own optimum.
    const auto direct = tt::SequentialSolver().solve(original);
    EXPECT_NEAR(original_cost, direct.cost,
                1e-9 * std::max(1.0, direct.cost));
  }
}

TEST(SvcCanon, CanonicalizationIsIdempotentOnKeys) {
  // Weights with an exactly-representable sum (1.0), so re-normalizing the
  // canonical form divides by exactly 1.0 and the key is a fixed point.
  // (For general weights idempotence holds only up to last-ulp rounding —
  // that costs at most a duplicate solve, never a wrong answer.)
  Instance ins(4, {0.5, 0.25, 0.125, 0.125});
  ins.add_test(bit(0) | bit(1), 1.0);
  ins.add_treatment(bit(0) | bit(1), 2.0);
  ins.add_treatment(bit(2) | bit(3), 2.5);
  const Canonical once = canonicalize(ins);
  const Canonical twice = canonicalize(once.instance);
  EXPECT_EQ(once.key, twice.key);
}

TEST(SvcCanon, MalformedInstanceThrows) {
  Instance bad(2, {0.5, 0.5});
  bad.add_treatment(bit(0) | bit(1), -1.0);  // negative cost
  EXPECT_THROW(canonicalize(bad), std::invalid_argument);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* why;
    std::vector<double> weights;
    double cost;
  };
  for (const Case& c : std::vector<Case>{
           {"weight sum overflows", {1e308, 1e308}, 1.0},
           {"normalized weight underflows", {1e-300, 1e308}, 1.0},
           {"infinite weight", {inf, 1.0}, 1.0},
           {"NaN weight", {nan, 1.0}, 1.0},
           {"NaN cost", {0.5, 0.5}, nan},
       }) {
    Instance ins(2, c.weights);
    ins.add_test(bit(0), c.cost);
    ins.add_treatment(bit(0) | bit(1), 1.0);
    EXPECT_THROW(canonicalize(ins), std::invalid_argument) << c.why;
  }
}

TEST(SvcCanon, SignedZeroCostsCollide) {
  // -0.0 == 0.0 to the DP, so the two spellings are one problem; the
  // canonical instance carries +0.0 and the key hashes those bits.
  Instance pos(2, {0.5, 0.5});
  pos.add_test(bit(0), 0.0);
  pos.add_treatment(bit(0) | bit(1), 1.0);
  Instance neg(2, {0.5, 0.5});
  neg.add_test(bit(0), -0.0);
  neg.add_treatment(bit(0) | bit(1), 1.0);
  const Canonical a = canonicalize(pos);
  const Canonical b = canonicalize(neg);
  EXPECT_EQ(a.key, b.key);
  EXPECT_FALSE(std::signbit(b.instance.action(0).cost));
}

TEST(SvcCanon, CanonicalOrderSortsTestsFirstBySetThenCost) {
  util::Rng rng(99);
  tt::RandomOptions opt;
  opt.num_tests = 4;
  opt.num_treatments = 5;
  for (int trial = 0; trial < 10; ++trial) {
    const Instance ins = tt::random_instance(6, opt, rng);
    const std::vector<int> ord = canonical_action_order(ins);
    ASSERT_EQ(ord.size(), static_cast<std::size_t>(ins.num_actions()));
    // ord is a permutation...
    std::vector<int> seen(ord.size(), 0);
    for (int i : ord) seen[static_cast<std::size_t>(i)]++;
    for (int c : seen) EXPECT_EQ(c, 1);
    // ...and the induced sequence is sorted: tests before treatments, each
    // group by (set, cost).
    for (std::size_t p = 1; p < ord.size(); ++p) {
      const tt::Action& x = ins.action(ord[p - 1]);
      const tt::Action& y = ins.action(ord[p]);
      EXPECT_LE(std::make_tuple(!x.is_test, x.set, x.cost),
                std::make_tuple(!y.is_test, y.set, y.cost))
          << "position " << p;
    }
  }
}

TEST(SvcCanon, ActionOrderDoesNotChangeTheCanonicalForm) {
  // The same actions inserted in two different orders canonicalize to the
  // same instance and key; canonicalizing that instance again is a no-op.
  Instance a(3, {0.5, 0.25, 0.25});
  a.add_test(0b011u, 1.0, "t1");
  a.add_test(0b101u, 1.5, "t2");
  a.add_treatment(0b001u, 2.0, "c1");
  a.add_treatment(0b110u, 3.0, "c2");
  Instance b(3, {0.5, 0.25, 0.25});
  b.add_treatment(0b110u, 3.0, "c2");
  b.add_test(0b101u, 1.5, "t2");
  b.add_treatment(0b001u, 2.0, "c1");
  b.add_test(0b011u, 1.0, "t1");
  const Canonical ca = canonicalize(a);
  const Canonical cb = canonicalize(b);
  EXPECT_EQ(ca.key, cb.key);
  ASSERT_EQ(ca.instance.num_actions(), cb.instance.num_actions());
  for (int i = 0; i < ca.instance.num_actions(); ++i) {
    const tt::Action& x = ca.instance.action(i);
    const tt::Action& y = cb.instance.action(i);
    EXPECT_EQ(x.is_test, y.is_test) << i;
    EXPECT_EQ(x.set, y.set) << i;
    EXPECT_EQ(x.cost, y.cost) << i;
    EXPECT_EQ(x.name, y.name) << i;  // regenerated, never the requester's
  }
  EXPECT_TRUE(ca.instance.action(0).is_test);
  EXPECT_TRUE(ca.instance.action(1).is_test);
  EXPECT_EQ(canonicalize(ca.instance).key, ca.key);
}

TEST(SvcCanon, CanonicalOrderIsStableAcrossDuplicates) {
  // Two actions with identical (kind, set, cost) keep their relative input
  // order — the permutation is deterministic, not tie-arbitrary.
  Instance ins(2, {0.5, 0.5});
  ins.add_test(0b01u, 1.0, "first");
  ins.add_test(0b01u, 1.0, "second");
  ins.add_treatment(0b11u, 2.0, "fix");
  const std::vector<int> ord = canonical_action_order(ins);
  EXPECT_EQ(ord, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace ttp::svc
