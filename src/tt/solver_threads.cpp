#include "tt/solver_threads.hpp"

#include <cassert>

#include "obs/trace.hpp"
#include "tt/kernel.hpp"

namespace ttp::tt {

namespace {

/// Debug-only enforcement of the header's single-caller contract: the
/// shared arena makes concurrent solve() calls on one object a data race.
class [[maybe_unused]] ArenaGuard {
 public:
  explicit ArenaGuard(std::atomic<bool>& flag) : flag_(flag) {
#ifndef NDEBUG
    const bool was = flag_.exchange(true, std::memory_order_acq_rel);
    assert(!was &&
           "ThreadsSolver::solve is single-caller: concurrent calls race on "
           "the shared SolveArena");
#endif
  }
  ~ArenaGuard() {
#ifndef NDEBUG
    flag_.store(false, std::memory_order_release);
#endif
  }

 private:
  [[maybe_unused]] std::atomic<bool>& flag_;
};

}  // namespace

SolveResult ThreadsSolver::solve(const Instance& ins) const {
  const ArenaGuard guard(in_solve_);
  ins.check();
  SolveResult res;
  const int k = ins.k();
  const int N = ins.num_actions();
  const std::size_t states = std::size_t{1} << k;
  const std::vector<double>& wt = ins.subset_weight_table();
  const std::uint64_t width = pool_.size();

  TTP_TRACE_SPAN(root_span, "solve.threads", res.steps);
  root_span.attr("k", k);
  root_span.attr("workers", pool_.size());
  root_span.attr("kernel", active_kernel_variant_name());

  const LayerIndex& layers = arena_.layers(k);
  const ActionSoA& soa = arena_.actions(ins);
  arena_.prepare_tables(states);
  double* cost = arena_.cost();
  int* best = arena_.best();
  const double* wtp = wt.data();

  for (int j = 1; j <= k; ++j) {
    TTP_TRACE_SPAN(layer_span, "layer", res.steps);
    layer_span.attr("j", j);
    const std::span<const Mask> layer = layers.layer(j);
    const std::size_t n = layer.size();
    layer_span.attr("states", static_cast<std::uint64_t>(n));
    // Reads touch only layers < j (finalized); writes per-state disjoint.
    pool_.parallel_for(n, [&](std::size_t b, std::size_t e) {
      eval_states(soa, wtp, layer.data() + b, e - b, cost, best);
    });
    // Normative accounting (solver.hpp): ceil(n / width) W-wide rounds,
    // each one parallel step; total_ops counts the M-evaluations actually
    // performed — n·N, exactly the sequential count, partial final round
    // included.
    res.steps.charge((n + width - 1) / width,
                     static_cast<std::uint64_t>(n) * N);
  }

  res.table.k = k;
  res.table.cost.assign(arena_.cost(), arena_.cost() + states);
  res.table.best_action.assign(arena_.best(), arena_.best() + states);
  res.cost = res.table.root_cost();
  res.tree = reconstruct_tree(ins, res.table);
  res.breakdown.add("m_evaluations", res.steps.total_ops);
  return res;
}

}  // namespace ttp::tt
