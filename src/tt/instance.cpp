#include "tt/instance.hpp"

#include <cmath>
#include <stdexcept>

namespace ttp::tt {

Instance::Instance(int k, std::vector<double> weights)
    : k_(k), weights_(std::move(weights)) {
  if (k < 1 || k > kMaxUniverse) {
    throw std::invalid_argument("Instance: k out of range [1, 24]");
  }
  if (static_cast<int>(weights_.size()) != k) {
    throw std::invalid_argument("Instance: weights size != k");
  }
}

int Instance::add_test(Mask set, double cost, std::string name) {
  Action a{set, cost, /*is_test=*/true,
           name.empty() ? "test" + std::to_string(num_tests_) : std::move(name)};
  actions_.insert(actions_.begin() + num_tests_, std::move(a));
  weight_table_.clear();
  return num_tests_++;
}

int Instance::add_treatment(Mask set, double cost, std::string name) {
  Action a{set, cost, /*is_test=*/false,
           name.empty() ? "treat" + std::to_string(num_actions() - num_tests_)
                        : std::move(name)};
  actions_.push_back(std::move(a));
  return num_actions() - 1;
}

double Instance::subset_weight(Mask s) const {
  double w = 0.0;
  for (int j = 0; j < k_; ++j) {
    if (util::has_bit(s, j)) w += weights_[static_cast<std::size_t>(j)];
  }
  return w;
}

const std::vector<double>& Instance::subset_weight_table() const {
  if (weight_table_.empty()) {
    const std::size_t n = std::size_t{1} << k_;
    weight_table_.resize(n, 0.0);
    // p(S) = p(S without lowest bit) + P_lowest, the same association as
    // subset_weight's ascending loop.
    for (std::size_t s = 1; s < n; ++s) {
      const Mask m = static_cast<Mask>(s);
      const int low = std::countr_zero(m);
      weight_table_[s] =
          weights_[static_cast<std::size_t>(low)] + weight_table_[s & (s - 1)];
    }
  }
  return weight_table_;
}

void Instance::check() const {
  double total = 0.0;
  for (const double w : weights_) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "Instance: weights must be positive and finite");
    }
    total += w;
  }
  // The priors are w_j / Σw. A sum that overflows, or a weight whose prior
  // underflows to 0, leaves an object without a usable prior (svc/canon
  // divides by this same left-to-right sum).
  for (const double w : weights_) {
    if (!std::isfinite(total) || !(w / total > 0.0)) {
      throw std::invalid_argument(
          "Instance: weights must normalize to positive priors");
    }
  }
  for (const auto& a : actions_) {
    if ((a.set & ~universe()) != 0) {
      throw std::invalid_argument("Instance: action set outside universe");
    }
    if (!(a.cost >= 0.0)) {
      throw std::invalid_argument("Instance: action cost must be >= 0");
    }
  }
  for (int i = 0; i + 1 < num_actions(); ++i) {
    if (!actions_[static_cast<std::size_t>(i)].is_test &&
        actions_[static_cast<std::size_t>(i + 1)].is_test) {
      throw std::invalid_argument("Instance: tests must precede treatments");
    }
  }
}

bool Instance::every_object_treatable() const {
  Mask covered = 0;
  for (int i = num_tests_; i < num_actions(); ++i) {
    covered |= actions_[static_cast<std::size_t>(i)].set;
  }
  return covered == universe();
}

Instance fig1_example() {
  // Four candidate conditions with unequal priors; two symptom tests that
  // split the candidates, three treatments of differing breadth and price.
  Instance ins(4, {0.4, 0.3, 0.2, 0.1});
  using util::bit;
  ins.add_test(bit(0) | bit(1), 1.0, "testAB");
  ins.add_test(bit(0) | bit(2), 1.5, "testAC");
  ins.add_treatment(bit(0), 2.0, "cureA");
  ins.add_treatment(bit(1) | bit(2), 3.0, "cureBC");
  ins.add_treatment(bit(2) | bit(3), 2.5, "cureCD");
  ins.check();
  return ins;
}

}  // namespace ttp::tt
