// Sequential backward-induction DP for the TT problem — the paper's baseline
// ("the known sequential algorithm ... obtained by modifying the backward
// induction algorithm given by Garey"). Layers |S| = 1..k; within a layer
// every (S, i) pair is evaluated once, so T_1 = Θ(N·2^k) M-evaluations.
#pragma once

#include "tt/solver.hpp"

namespace ttp::tt {

class SequentialSolver {
 public:
  /// Solves `ins`; steps.total_ops counts M[S,i] evaluations (the paper's T_1).
  ///
  /// Thread safety: the reusable SolveArena behind this is thread_local,
  /// so one SequentialSolver may be shared across threads freely — unlike
  /// ThreadsSolver, whose member arenas make solve() single-caller per
  /// object (see solver_threads.hpp).
  SolveResult solve(const Instance& ins) const;
};

/// Reference M[S,i] evaluation: computes M[S,i] given finalized costs for
/// strictly smaller states; kInf for useless/inapplicable actions. The hot
/// path is the tiled kernel in tt/kernel.hpp, which tests pin bitwise
/// against this function; validate.cpp and cross-checks call it directly.
double action_value(const Instance& ins, const std::vector<double>& cost,
                    const std::vector<double>& weight_table, Mask s, int i);

}  // namespace ttp::tt
