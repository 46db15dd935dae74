// Seeded request plans for the socket benchmark's four workloads.
//
// A plan is everything a run sends, fixed before any daemon starts: the
// distinct problems (one canonical key each), the exact text spellings
// that go over the wire, and the ordered request sequences of each phase.
// The same (workload, seed, seconds) always yields a byte-identical plan,
// so two runs with one seed do identical work.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tt/instance.hpp"
#include "util/rng.hpp"

namespace pb {

enum class Workload { kWarmHits, kColdDomains, kColdSparse, kRoutedRestart };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kWarmHits, Workload::kColdDomains, Workload::kColdSparse,
    Workload::kRoutedRestart};

std::string_view workload_name(Workload w);
/// False when `name` names no workload.
bool parse_workload(std::string_view name, Workload& out);

/// One exact request text. Several spellings may share a problem (action
/// order, names and a power-of-two weight scale differ); the daemon must
/// canonicalize them to one key.
struct Spelling {
  std::string frame;          ///< "SOLVE\n" + instance text + "END\n".
  std::uint32_t problem = 0;  ///< Index into Plan::problems.
};

struct Plan {
  Workload workload = Workload::kWarmHits;
  int connections = 1;  ///< Closed-loop client connections.
  std::vector<ttp::tt::Instance> problems;  ///< Distinct canonical keys.
  std::vector<Spelling> spellings;
  /// Spelling ids, in send order, of each phase. `fixture` is written into
  /// the durable store before the run (routed_restart only); `setup` is
  /// sent while setup_s is timed; `measured` is the measured phase.
  std::vector<std::uint32_t> fixture;
  std::vector<std::uint32_t> setup;
  std::vector<std::uint32_t> measured;
  std::size_t never_seen = 0;  ///< Measured requests on keys new to the run.

  /// FNV-1a over every phase's frames in send order (self-check digest).
  std::uint64_t digest() const;
};

/// Builds the plan. `seconds` scales the measured request count by the
/// workload's nominal rate, so the measured phase lasts about that long.
Plan make_plan(Workload w, std::uint64_t seed, int seconds);

/// Zipf(s) popularity over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(ttp::util::Rng& rng) const;
  double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace pb
