#include "tt/report.hpp"

#include <ostream>
#include <sstream>

namespace ttp::tt {

std::string describe(const Instance& ins) {
  std::ostringstream os;
  os << "TT instance: k=" << ins.k() << " objects, " << ins.num_tests()
     << " tests + " << ins.num_treatments() << " treatments (N="
     << ins.num_actions() << ")\n";
  os << "  weights:";
  for (int j = 0; j < ins.k(); ++j) os << ' ' << ins.weight(j);
  os << '\n';
  for (int i = 0; i < ins.num_actions(); ++i) {
    const Action& a = ins.action(i);
    os << "  [" << i << "] " << (a.is_test ? "test " : "treat") << ' '
       << a.name << ' ' << util::mask_to_string(a.set) << " cost=" << a.cost
       << '\n';
  }
  return os.str();
}

void print_result(std::ostream& os, const Instance& ins,
                  const SolveResult& res, const std::string& solver_name) {
  os << solver_name << ": C(U) = " << res.cost << '\n';
  if (!res.tree.empty()) {
    os << "optimal procedure (" << res.tree.size() << " nodes, depth "
       << res.tree.depth() << "):\n"
       << res.tree.to_string(ins);
  } else {
    os << "no successful procedure exists (inadequate specification)\n";
  }
  os << "steps: parallel=" << res.steps.parallel_steps
     << " routed=" << res.steps.route_steps << " ops=" << res.steps.total_ops
     << '\n';
  for (const auto& [name, v] : res.breakdown.all()) {
    os << "  " << name << " = " << v << '\n';
  }
}

}  // namespace ttp::tt
