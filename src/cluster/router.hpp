// The ttp_router forwarding host: a svc::SessionHost that speaks the same
// newline-framed wire protocol as ttp_serve, but instead of solving,
// routes each SOLVE by its canonical content key over a consistent-hash
// ring of ttp_serve backends.
//
// Why key-affinity routing: every backend keeps a sharded procedure cache
// keyed by svc::CanonKey. Spraying requests round-robin would duplicate
// each instance's cache line n ways and cut the effective cluster cache to
// 1/n; routing by key sends every semantically-identical request to the
// same backend, so the cluster cache is the sum of the parts and the
// singleflight collapse on the backend still works across clients.
//
// Request handling per SOLVE:
//
//   1. Read the frame (shared read_solve_frame — same oversize and
//      torn-frame behavior as ttp_serve) into the session's buffer, which
//      becomes the forwarded frame; parse it, canonicalize, take the key.
//      A frame the parser rejects is answered here, never forwarded.
//   2. Walk the ring for distinct replicas, keep the routable ones.
//   3. Forward to the primary over a pooled connection. Retryable
//      failures — connect/transport errors, and the typed ERR codes
//      cancelled/overload/timeout, all safe because SOLVE is a pure
//      idempotent computation — move to the next replica, up to
//      --retries extra attempts. Non-retryable typed errors
//      (bad-request, oversize, internal) are relayed as-is: every
//      backend would answer the same.
//   4. Optionally hedge: when --hedge-ms > 0 and a second replica is
//      routable, a first attempt that hasn't started replying within the
//      hedge delay gets a racing duplicate on the next replica; the
//      first complete reply wins, the loser is discarded. The delay
//      adapts: min(--hedge-ms, observed p95 of the upstream stage) once 64
//      solves have been recorded.
//   5. Exhaustion relays the last typed backend error if any arrived,
//      else the router's own "ERR upstream ...".
//
// Replies are relayed verbatim, each read into one buffer — cost, tree
// bytes, and the backend's trace id pass through untouched, so a client
// cannot tell a router from a single ttp_serve (and TRACE <id> still
// works: the router fans the lookup out to the backends).
//
// Each SOLVE answered with a relayed OK reply records its timeline
// (obs/flight.hpp) in the router's stage summaries: read, parse, admit
// (canonicalize plus the ring walk), upstream (the forward loop, retries
// and hedges included) and write, plus e2e, their sum.
//
// Counters (cluster.* in the router registry, visible via STATS/METRICS):
//   cluster.routed       SOLVEs answered with a relayed backend reply
//   cluster.retried      failover attempts after a retryable failure
//   cluster.hedged       hedged duplicates launched
//   cluster.hedge_wins   hedges whose duplicate answered first
//   cluster.upstream_errors  SOLVEs that exhausted every replica
//   cluster.probes / probe_failures / ejected / readmitted  (health.hpp)
// plus per-backend cluster.backend.<addr>.* gauges/counters (upstream.hpp)
// and the svc.server.* session-pool counters from the shared Server.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "svc/server.hpp"

#ifndef _WIN32
#include <atomic>
#include <iosfwd>
#include <memory>

#include "cluster/health.hpp"
#include "cluster/ring.hpp"
#include "cluster/upstream.hpp"
#include "obs/flight.hpp"
#endif

namespace ttp::cluster {

struct RouterConfig {
  int vnodes = 128;  ///< Ring points per backend.
  int retries = 2;   ///< Extra replicas tried after the first attempt.
  int hedge_ms = 0;  ///< Hedge delay ceiling; 0 disables hedging.
#ifndef _WIN32
  UpstreamConfig upstream;
  HealthConfig health;
#endif
};

/// Everything ttp_router's command line configures.
struct RouterArgs {
  int port = -1;  ///< -1 = stdio mode.
  bool help = false;
  std::vector<std::string> backends;  ///< --backend=host:port, repeated.
  RouterConfig cfg;
  svc::ServerConfig server;
};

/// Parses and range-validates the ttp_router argument vector; same strict
/// no-silent-wrap contract as parse_serve_args. Requires at least one
/// --backend unless --help was given.
bool parse_router_args(int argc, const char* const* argv, RouterArgs& args,
                       std::string& error);

#ifndef _WIN32

/// The session pool host (svc::Server drives it) and the command handler
/// its sessions run: svc::serve_session owns the command loop, as it does
/// for ttp_serve, and dispatches SOLVE and TRACE to the forwarding below.
class Router final : public svc::SessionHost, public svc::CommandHandler {
 public:
  /// Builds the ring, one Upstream per backend, and the prober (not yet
  /// started — call start_prober(), or drive prober().probe_all() by hand
  /// in tests). Throws std::invalid_argument on an empty backend list or
  /// a malformed address.
  Router(std::vector<std::string> backends, RouterConfig cfg);
  ~Router() override;

  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const Ring& ring() const noexcept { return ring_; }
  std::size_t backend_count() const noexcept { return upstreams_.size(); }
  Upstream& upstream(std::size_t i) { return *upstreams_[i]; }
  HealthProber& prober() noexcept { return *prober_; }
  void start_prober() { prober_->start(); }

  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Current hedge delay: 0 when disabled, else min(--hedge-ms, observed
  /// p95 of the upstream stage) once 64 samples exist (--hedge-ms before
  /// that).
  int hedge_delay_ms() const;

  // CommandHandler: one session's SOLVE/TRACE/STATS/METRICS/HEALTH.
  void solve(std::istream& in, std::ostream& out,
             const svc::SessionOptions& opts, std::string& frame) override;
  void trace(const std::string& arg, std::ostream& out) override;
  std::string stats_text() const override;
  std::string metrics_text() const override;
  std::string health_text() const override;

  // SessionHost: the shared svc::Server drives these.
  obs::MetricsRegistry& session_metrics() override { return metrics_; }
  svc::SessionResult serve(std::istream& in, std::ostream& out,
                           const svc::SessionOptions& opts) override;
  void drain_begin() noexcept override {
    draining_.store(true, std::memory_order_relaxed);
  }
  void drain_force() override;

 private:
  struct Attempt {
    enum class Kind { kOk, kTypedErr, kTransport };
    Kind kind = Kind::kTransport;
    std::string code;   ///< ERR code when kTypedErr.
    std::string reply;  ///< Full relayable reply text (kOk / kTypedErr).
  };

  /// One complete exchange on an already-sent connection; releases the
  /// connection back to `up` only on a clean kOk/kTypedErr exchange.
  Attempt read_reply(Upstream& up, std::unique_ptr<svc::WireClient> conn);
  /// Dial/pool + send + read_reply.
  Attempt forward_once(Upstream& up, const std::string& frame);
  /// First attempt with hedging: races `a` against a delayed duplicate on
  /// `b`; first complete reply wins.
  Attempt forward_hedged(Upstream& a, Upstream& b, const std::string& frame);

  static bool retryable_code(const std::string& code) noexcept;

  RouterConfig cfg_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Upstream>> upstreams_;
  Ring ring_;
  std::unique_ptr<HealthProber> prober_;
  std::atomic<bool> draining_{false};

  obs::StageSketches sketches_{obs::kRouterStages};

  obs::Counter& routed_;
  obs::Counter& retried_;
  obs::Counter& hedged_;
  obs::Counter& hedge_wins_;
  obs::Counter& upstream_errors_;
};

#endif  // !_WIN32

}  // namespace ttp::cluster
