// One ttp_serve backend as seen by the router: its address, its health
// state, and a small bounded pool of reusable WireClient connections.
//
// Pooling rules (the subtle part is staleness): ttp_serve closes idle
// sessions after --idle-timeout-ms with a terminal "ERR timeout" line, and
// a draining backend sends "BYE" — either would desynchronize the framing
// if the router blindly reused the socket for its next forwarded SOLVE.
// acquire() therefore drops any pooled connection that has unexpected
// bytes pending (the terminal line), has seen EOF, or has sat idle past
// max_idle_ms, and dials a fresh one instead. release() only returns a
// connection to the pool when the caller completed a full request/reply
// exchange on it.
//
// Health state is a plain atomic driven by the HealthProber's
// consecutive-failure / consecutive-success streaks; the router consults
// routable() when picking replicas. kDraining (the backend answered its
// HEALTH probe with "draining") means alive-but-finishing: not routable,
// but not a failure streak either.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/client.hpp"

namespace ttp::cluster {

struct UpstreamConfig {
  int connect_timeout_ms = 1000;  ///< Per-dial TCP handshake budget.
  int request_timeout_ms = 5000;  ///< Per forwarded request reply budget.
  std::size_t pool_size = 8;      ///< Idle connections kept per backend.
  int max_idle_ms = 30000;        ///< Pooled-connection age cap; must stay
                                  ///< under the backend idle timeout.
  svc::FaultPlan faults{};        ///< Injected into dialed connections.
};

class Upstream {
 public:
  enum class State { kHealthy, kEjected, kDraining };

  /// `address` must be "host:port" (throws std::invalid_argument
  /// otherwise). Registers this backend's counters/gauge in `reg`.
  Upstream(const std::string& address, UpstreamConfig cfg,
           obs::MetricsRegistry& reg);

  const std::string& address() const noexcept { return address_; }
  const std::string& host() const noexcept { return host_; }
  int port() const noexcept { return port_; }
  const UpstreamConfig& config() const noexcept { return cfg_; }

  State state() const noexcept {
    return state_.load(std::memory_order_relaxed);
  }
  bool routable() const noexcept { return state() == State::kHealthy; }
  static const char* state_name(State s) noexcept;

  /// Prober verdicts. Transitions are streak-based: eject after
  /// `eject_after` consecutive failures, readmit after `readmit_after`
  /// consecutive successes. Each returns true when the call transitioned
  /// the state (so the prober can count ejections/readmissions once).
  bool note_probe_failure(int eject_after);
  bool note_probe_success(int readmit_after);
  /// HEALTH said "draining" (or stopped saying it). Resets streaks.
  bool set_draining(bool draining);

  /// A connection ready for one request/reply exchange: pooled if fresh,
  /// freshly dialed otherwise. Null (with the dial error reflected in the
  /// connects_failed counter) when the backend is unreachable.
  std::unique_ptr<svc::WireClient> acquire();
  /// Returns a connection whose exchange completed cleanly to the pool
  /// (or closes it when the pool is full).
  void release(std::unique_ptr<svc::WireClient> conn);
  /// Drops every pooled connection (drain shutdown, or after ejection so
  /// a recovered backend starts from fresh sockets).
  void close_idle();

 private:
  struct Idle {
    std::unique_ptr<svc::WireClient> conn;
    std::int64_t since_ns;
  };

  std::string address_;
  std::string host_;
  int port_;
  UpstreamConfig cfg_;

  std::atomic<State> state_{State::kHealthy};
  std::atomic<int> fail_streak_{0};
  std::atomic<int> ok_streak_{0};

  mutable std::mutex mu_;
  std::vector<Idle> idle_;

  obs::Counter& connects_;
  obs::Counter& connects_failed_;
  obs::Counter& reused_;
  obs::Counter& stale_dropped_;
  obs::Gauge& state_gauge_;  ///< 0 healthy, 1 draining, 2 ejected.
  obs::Gauge& pooled_gauge_;
};

}  // namespace ttp::cluster
