// Human-readable summaries of solver results, shared by examples & benches.
#pragma once

#include <iosfwd>
#include <string>

#include "tt/solver.hpp"

namespace ttp::tt {

/// One-paragraph instance description (k, m, N, weights).
std::string describe(const Instance& ins);

/// Prints cost, tree, and step accounting for a solve.
void print_result(std::ostream& os, const Instance& ins,
                  const SolveResult& res, const std::string& solver_name);

}  // namespace ttp::tt
