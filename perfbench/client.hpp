// The benchmark's wire client: closed-loop request driving over a few TCP
// connections from one thread, reply verification, and STATS / METRICS
// scrapes. Connections are svc::WireClient; only the measured loop reads
// their sockets directly, to wait on several at once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "plan.hpp"
#include "proc.hpp"
#include "svc/client.hpp"

namespace pb {

using Conns = std::vector<std::unique_ptr<ttp::svc::WireClient>>;

/// One daemon's counters at one instant.
struct Snapshot {
  CpuTimes cpu;                              ///< From /proc.
  std::map<std::string, std::string> stats;  ///< STATS "name: v" / "name = v".
  std::map<std::string, double> metrics;     ///< METRICS "series value".

  double stat(const std::string& name) const;
  double metric(const std::string& series) const;
};

/// STATS and METRICS over `conn`; cpu is left to the caller.
Snapshot scrape(ttp::svc::WireClient& conn);

/// Checks every reply. In the measured loop a reply only has to equal,
/// byte for byte (cost and tree; cache= and trace= differ by design), the
/// first reply seen for the same spelling; validate() then checks each
/// first reply in full, outside any timed phase.
class Verifier {
 public:
  explicit Verifier(const Plan& plan);

  /// False for an ERR reply, a malformed one, or a mismatch.
  bool check(std::uint32_t spelling, std::string_view reply);

  /// Parses each first reply with svc::tree_from_wire, checks it with
  /// tt::validate_tree against the exact text that was sent, and compares
  /// its cost with `reference` (per problem, weights as generated).
  /// Returns the number of replies that failed: a bad first reply counts
  /// once for every reply that matched it.
  std::size_t validate(const std::vector<double>& reference);

  void note(std::string message);
  const std::vector<std::string>& errors() const noexcept { return errors_; }

 private:
  const Plan& plan_;
  std::vector<std::string> first_;       ///< Per spelling; empty = unseen.
  std::vector<std::uint32_t> split_;     ///< Header part length in first_.
  std::vector<std::uint32_t> matched_;   ///< Replies that equalled first_.
  std::vector<std::string> errors_;
};

/// Block boundaries of a phase: drive() records the time at its start and
/// after every `every` replies, and calls `at` there (the caller samples
/// daemon CPU). `every` = 0 records nothing.
struct Marks {
  std::size_t every = 0;
  std::function<void()> at;
};

struct PhaseStats {
  double wall_s = 0.0;
  std::vector<double> latency_us;  ///< Request write to last reply byte,
                                   ///< in completion order.
  std::vector<std::int64_t> mark_ns;  ///< See Marks.
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
};

/// Closed loop: every connection keeps one request outstanding, and the
/// next request of `ids` goes to whichever connection answers first, so a
/// run always sends exactly `ids`. A connection silent for 30 s fails its
/// request and ends the phase.
PhaseStats drive(Conns& conns, const Plan& plan,
                 const std::vector<std::uint32_t>& ids, Verifier& verifier,
                 const Marks& marks = {});

/// Opens `n` connections to 127.0.0.1:`port`; throws when one fails.
Conns connect_all(int port, int n);

}  // namespace pb
