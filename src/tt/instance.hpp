// The test-and-treatment (TT) problem model (paper §1).
//
// A universe U = {0..k-1} of objects, object j having a-priori weight P_j > 0
// (weights need not be normalized), and N actions. Actions 0..m-1 are tests,
// m..N-1 are treatments; action i is a subset T_i of U with execution cost
// t_i >= 0. Exactly one unknown object is faulty. A test splits the candidate
// set S into S∩T_i / S-T_i; a treatment cures the objects of S∩T_i (the
// procedure ends if the faulty object was among them) and on failure
// continues on S-T_i. The optimal procedure minimizes expected cost:
//
//   C(∅)   = 0
//   C(S)   = min_i M[S,i]
//   M[S,i] = t_i·p(S) + C(S∩T_i) + C(S-T_i)   for tests with ∅≠S∩T_i≠S
//   M[S,i] = t_i·p(S) + C(S-T_i)              for treatments with S∩T_i≠∅
//
// where p(S) = Σ_{j∈S} P_j. Useless actions are excluded by the layered
// evaluation (they would reference C(S) itself, still INF).
#pragma once

#include <string>
#include <vector>

#include "util/bits.hpp"

namespace ttp::tt {

using util::Mask;

struct Action {
  Mask set = 0;       ///< T_i as a bitmask over U.
  double cost = 0.0;  ///< t_i >= 0.
  bool is_test = false;
  std::string name;   ///< Optional label used in reports and trees.
};

/// Maximum universe size accepted by any solver (2^k DP states).
inline constexpr int kMaxUniverse = 24;

class Instance {
 public:
  Instance(int k, std::vector<double> weights);

  /// Tests are kept before treatments; each call appends within its group
  /// preserving insertion order, so action indices follow the paper's
  /// convention (tests 0..m-1, treatments m..N-1).
  int add_test(Mask set, double cost, std::string name = "");
  int add_treatment(Mask set, double cost, std::string name = "");
  /// Room for `n` actions, for a parser that knows the count up front.
  void reserve_actions(std::size_t n) { actions_.reserve(n); }

  int k() const noexcept { return k_; }
  int num_actions() const noexcept { return static_cast<int>(actions_.size()); }
  int num_tests() const noexcept { return num_tests_; }
  int num_treatments() const noexcept { return num_actions() - num_tests_; }
  Mask universe() const noexcept { return util::universe(k_); }

  const Action& action(int i) const { return actions_.at(static_cast<std::size_t>(i)); }
  const std::vector<Action>& actions() const noexcept { return actions_; }
  double weight(int obj) const { return weights_.at(static_cast<std::size_t>(obj)); }
  const std::vector<double>& weights() const noexcept { return weights_; }

  /// Σ_{j∈S} P_j, fixed association order (ascending object index) so all
  /// solvers produce bitwise-identical sums.
  double subset_weight(Mask s) const;

  /// The full p(S) table for S ⊆ U, indexed by mask. Computed on demand and
  /// cached; every solver reads this one table.
  const std::vector<double>& subset_weight_table() const;

  /// Structural sanity: k in range; weights finite and positive, with a
  /// finite sum that no weight underflows to 0 against (so the priors
  /// w_j / Σw are finite and positive); sets within universe; costs
  /// non-negative and not NaN. Throws std::invalid_argument on violation.
  void check() const;

  /// Necessary and sufficient condition for a successful procedure to exist
  /// (adequacy): every object is covered by some treatment is necessary;
  /// sufficiency additionally needs reachability, which the DP settles.
  /// This cheap check covers the common case and is used by generators.
  bool every_object_treatable() const;

 private:
  int k_;
  std::vector<double> weights_;
  std::vector<Action> actions_;
  int num_tests_ = 0;
  mutable std::vector<double> weight_table_;  // lazy cache
};

/// A worked 4-object instance in the spirit of the paper's Fig. 1 (a small
/// medical-diagnosis shaped problem with two tests and three treatments).
Instance fig1_example();

}  // namespace ttp::tt
