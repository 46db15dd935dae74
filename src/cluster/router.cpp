#include "cluster/router.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

namespace ttp::cluster {

bool parse_router_args(int argc, const char* const* argv, RouterArgs& args,
                       std::string& error) {
  RouterConfig& c = args.cfg;
  std::vector<svc::LongFlag> flags = svc::server_flags(args.port, args.server);
  flags.insert(
      flags.end(),
      {
          {"--vnodes", 1, 4096,
           [&](long v) { c.vnodes = static_cast<int>(v); }},
          {"--retries", 0, 16,
           [&](long v) { c.retries = static_cast<int>(v); }},
          {"--hedge-ms", 0, 60'000,
           [&](long v) { c.hedge_ms = static_cast<int>(v); }},
#ifndef _WIN32
          {"--connect-timeout-ms", 1, 600'000,
           [&](long v) {
             c.upstream.connect_timeout_ms = static_cast<int>(v);
           }},
          {"--request-timeout-ms", 1, 600'000,
           [&](long v) {
             c.upstream.request_timeout_ms = static_cast<int>(v);
           }},
          {"--pool-size", 0, 1024,
           [&](long v) {
             c.upstream.pool_size = static_cast<std::size_t>(v);
           }},
          {"--max-idle-ms", 1, 1'000'000'000L,
           [&](long v) { c.upstream.max_idle_ms = static_cast<int>(v); }},
          {"--probe-interval-ms", 1, 600'000,
           [&](long v) {
             c.health.probe_interval_ms = static_cast<int>(v);
           }},
          {"--probe-timeout-ms", 1, 600'000,
           [&](long v) { c.health.probe_timeout_ms = static_cast<int>(v); }},
          {"--eject-after", 1, 1000,
           [&](long v) { c.health.eject_after = static_cast<int>(v); }},
          {"--readmit-after", 1, 1000,
           [&](long v) { c.health.readmit_after = static_cast<int>(v); }},
#endif  // !_WIN32
      });
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      args.help = true;
      return true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      const std::string addr = arg.substr(std::strlen("--backend="));
      if (addr.empty()) {
        error = "--backend expects host:port";
        return false;
      }
      for (const std::string& b : args.backends) {
        if (b == addr) {
          error = "duplicate --backend=" + addr;
          return false;
        }
      }
      args.backends.push_back(addr);
    } else if (!svc::parse_long_flag(arg, flags, error)) {
      return false;
    }
  }
  if (args.backends.empty()) {
    error = "at least one --backend=host:port is required";
    return false;
  }
  args.server.port = args.port;
  return true;
}

}  // namespace ttp::cluster

#ifndef _WIN32

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <istream>
#include <ostream>

#include "obs/flight.hpp"
#include "obs/prom.hpp"
#include "svc/wire.hpp"
#include "tt/serialize.hpp"

namespace ttp::cluster {

namespace {

std::vector<std::unique_ptr<Upstream>> make_upstreams(
    const std::vector<std::string>& backends, const UpstreamConfig& cfg,
    obs::MetricsRegistry& reg) {
  if (backends.empty()) {
    throw std::invalid_argument("Router: at least one backend required");
  }
  std::vector<std::unique_ptr<Upstream>> out;
  out.reserve(backends.size());
  for (const std::string& addr : backends) {
    out.push_back(std::make_unique<Upstream>(addr, cfg, reg));
  }
  return out;
}

}  // namespace

Router::Router(std::vector<std::string> backends, RouterConfig cfg)
    : cfg_(cfg),
      upstreams_(make_upstreams(backends, cfg.upstream, metrics_)),
      ring_(backends, cfg.vnodes),
      routed_(metrics_.counter("cluster.routed")),
      retried_(metrics_.counter("cluster.retried")),
      hedged_(metrics_.counter("cluster.hedged")),
      hedge_wins_(metrics_.counter("cluster.hedge_wins")),
      upstream_errors_(metrics_.counter("cluster.upstream_errors")) {
  std::vector<Upstream*> probe_targets;
  probe_targets.reserve(upstreams_.size());
  for (const auto& up : upstreams_) probe_targets.push_back(up.get());
  prober_ = std::make_unique<HealthProber>(std::move(probe_targets),
                                           cfg_.health, metrics_);
}

Router::~Router() { prober_->stop(); }

bool Router::retryable_code(const std::string& code) noexcept {
  // SOLVE is a pure idempotent computation, so anything transient is safe
  // to replay on another replica. bad-request/oversize/internal are
  // deterministic — every backend would answer the same.
  return code == "cancelled" || code == "overload" || code == "timeout";
}

int Router::hedge_delay_ms() const {
  if (cfg_.hedge_ms <= 0) return 0;
  const obs::QuantileSnapshot snap = sketches_.snapshot(obs::Stage::kUpstream);
  if (snap.count() < 64) return cfg_.hedge_ms;
  const int p95_ms = static_cast<int>(snap.quantile(0.95) / 1'000'000);
  return std::min(cfg_.hedge_ms, std::max(1, p95_ms));
}

Router::Attempt Router::read_reply(Upstream& up,
                                   std::unique_ptr<svc::WireClient> conn) {
  const int budget = cfg_.upstream.request_timeout_ms;
  Attempt a;
  std::string& reply = a.reply;
  if (!conn->read_line(reply, budget)) return Attempt{};
  if (reply.rfind("ERR ", 0) == 0) {
    const std::size_t sp = reply.find(' ', 4);
    a.code = reply.substr(4, sp == std::string::npos ? std::string::npos
                                                     : sp - 4);
    a.kind = Attempt::Kind::kTypedErr;
    reply += '\n';
  } else if (reply.rfind("OK", 0) == 0 || reply == "TRACE") {
    // The head, then the body through END, in the one reply buffer.
    reply += '\n';
    if (!conn->read_until("END", reply, budget)) return Attempt{};
    a.kind = Attempt::Kind::kOk;
  } else {
    return Attempt{};  // garbled head: protocol desync, a transport failure
  }
  up.release(std::move(conn));
  return a;
}

Router::Attempt Router::forward_once(Upstream& up, const std::string& frame) {
  std::unique_ptr<svc::WireClient> conn = up.acquire();
  if (conn == nullptr) return Attempt{};
  if (!conn->send(frame)) return Attempt{};
  return read_reply(up, std::move(conn));
}

Router::Attempt Router::forward_hedged(Upstream& a, Upstream& b,
                                       const std::string& frame) {
  std::unique_ptr<svc::WireClient> c1 = a.acquire();
  if (c1 == nullptr || !c1->send(frame)) return Attempt{};
  if (c1->poll_readable(hedge_delay_ms())) {
    return read_reply(a, std::move(c1));
  }
  // The primary is slow; launch the duplicate and take whichever replica
  // completes a reply first. The loser's connection is discarded (its
  // reply is still in flight, so it can never go back to the pool).
  hedged_.add(1);
  std::unique_ptr<svc::WireClient> c2 = b.acquire();
  if (c2 == nullptr || !c2->send(frame)) {
    return read_reply(a, std::move(c1));  // hedge failed to launch
  }
  const std::int64_t deadline =
      obs::steady_now_ns() +
      static_cast<std::int64_t>(cfg_.upstream.request_timeout_ms) *
          1'000'000;
  while (c1 != nullptr || c2 != nullptr) {
    const int left_ms = static_cast<int>(
        (deadline - obs::steady_now_ns()) / 1'000'000);
    if (left_ms <= 0) break;
    pollfd pfds[2];
    int n = 0;
    int i1 = -1, i2 = -1;
    if (c1 != nullptr) {
      pfds[n] = pollfd{c1->fd(), POLLIN, 0};
      i1 = n++;
    }
    if (c2 != nullptr) {
      pfds[n] = pollfd{c2->fd(), POLLIN, 0};
      i2 = n++;
    }
    const int pr = ::poll(pfds, static_cast<nfds_t>(n), left_ms);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) break;
    if (i1 >= 0 && pfds[i1].revents != 0) {
      Attempt r = read_reply(a, std::move(c1));
      if (r.kind != Attempt::Kind::kTransport) return r;
      continue;  // primary died mid-reply; keep waiting on the hedge
    }
    if (i2 >= 0 && pfds[i2].revents != 0) {
      Attempt r = read_reply(b, std::move(c2));
      if (r.kind != Attempt::Kind::kTransport) {
        hedge_wins_.add(1);
        return r;
      }
    }
  }
  return Attempt{};
}

void Router::solve(std::istream& in, std::ostream& out,
                   const svc::SessionOptions& opts, std::string& frame) {
  obs::FlightRecord rec = svc::open_timeline(opts);
  // The body lands behind its SOLVE line in the session's buffer, which
  // becomes the forwarded frame once END is appended.
  constexpr std::string_view kSolveLine = "SOLVE\n";
  frame.assign(kSolveLine);
  if (!svc::read_solve_frame(in, out, opts, frame)) return;
  rec.mark(obs::Stage::kRead, obs::steady_now_ns());
  svc::CanonKey key;
  try {
    const tt::Instance ins =
        tt::from_text(std::string_view(frame).substr(kSolveLine.size()));
    rec.mark(obs::Stage::kParse, obs::steady_now_ns());
    key = svc::canonicalize(ins).key;
  } catch (const std::exception& e) {
    // Reject here rather than forwarding garbage: the verdict is
    // deterministic and the backends shouldn't pay for it.
    svc::write_err(out, "bad-request", e.what());
    return;
  }
  frame += "END\n";
  const std::vector<std::size_t> order =
      ring_.replicas(key, upstreams_.size());
  std::vector<std::size_t> cands;
  for (const std::size_t i : order) {
    if (upstreams_[i]->routable()) cands.push_back(i);
  }
  if (cands.empty()) {
    upstream_errors_.add(1);
    svc::write_err(out, "upstream",
                   "no routable backends for key " + key.hex());
    return;
  }
  const std::size_t attempts = std::min(
      cands.size(), static_cast<std::size_t>(cfg_.retries) + 1);
  rec.mark(obs::Stage::kAdmit, obs::steady_now_ns());
  std::string last_typed;
  for (std::size_t i = 0; i < attempts; ++i) {
    Upstream& up = *upstreams_[cands[i]];
    Attempt r;
    if (i == 0 && cfg_.hedge_ms > 0 && cands.size() >= 2) {
      r = forward_hedged(up, *upstreams_[cands[1]], frame);
    } else {
      r = forward_once(up, frame);
    }
    if (r.kind == Attempt::Kind::kOk) {
      // Count before relaying; the timeline is published after the write,
      // so a METRICS on this session sees it.
      routed_.add(1);
      rec.mark(obs::Stage::kUpstream, obs::steady_now_ns());
      out << r.reply << std::flush;
      rec.mark(obs::Stage::kWrite, obs::steady_now_ns());
      sketches_.record(rec);
      return;
    }
    if (r.kind == Attempt::Kind::kTypedErr) {
      if (!retryable_code(r.code)) {
        routed_.add(1);
        out << r.reply << std::flush;
        return;
      }
      last_typed = r.reply;
    }
    if (i + 1 < attempts) retried_.add(1);
  }
  upstream_errors_.add(1);
  if (!last_typed.empty()) {
    // The backends were reachable but all declined (overload/cancelled/
    // timeout); their typed verdict is more actionable than a generic
    // upstream error.
    out << last_typed << std::flush;
  } else {
    svc::write_err(out, "upstream",
                   "all replicas failed for key " + key.hex());
  }
}

void Router::trace(const std::string& arg, std::ostream& out) {
  // The router doesn't know which backend served a past request (hedges
  // and failovers move keys around), so fan the lookup out. Ring order
  // keeps the common case — the key's primary — first.
  std::string last_err;
  for (const auto& up : upstreams_) {
    if (up->state() == Upstream::State::kEjected) continue;
    std::unique_ptr<svc::WireClient> conn = up->acquire();
    if (conn == nullptr) continue;
    if (!conn->send("TRACE " + arg + "\n")) continue;
    Attempt r = read_reply(*up, std::move(conn));
    if (r.kind == Attempt::Kind::kOk) {
      out << r.reply << std::flush;
      return;
    }
    if (r.kind == Attempt::Kind::kTypedErr && r.code != "not-found") {
      last_err = r.reply;
    }
  }
  if (!last_err.empty()) {
    out << last_err << std::flush;
  } else {
    svc::write_err(out, "not-found",
                   "trace " + arg + " not held by any backend");
  }
}

std::string Router::stats_text() const {
  std::ostringstream os;
  os << "ring.backends: " << upstreams_.size() << '\n'
     << "ring.vnodes: " << cfg_.vnodes << '\n';
  metrics_.print(os, "");
  return os.str();
}

std::string Router::metrics_text() const {
  std::ostringstream os;
  os << "# TYPE ttp_build_info gauge\n"
     << "ttp_build_info{role=\"router\"} 1\n";
  obs::write_prometheus(os, metrics_);
  sketches_.write_prometheus(os);
  return os.str();
}

std::string Router::health_text() const {
  std::size_t routable = 0;
  for (const auto& up : upstreams_) {
    if (up->routable()) ++routable;
  }
  std::ostringstream os;
  os << (draining() ? "draining" : routable == 0 ? "degraded" : "ready")
     << '\n'
     << "backends.total: " << upstreams_.size() << '\n'
     << "backends.routable: " << routable << '\n'
     << "probe.rounds: " << prober_->rounds() << '\n';
  for (const auto& up : upstreams_) {
    os << "backend." << up->address() << ": "
       << Upstream::state_name(up->state()) << '\n';
  }
  return os.str();
}

svc::SessionResult Router::serve(std::istream& in, std::ostream& out,
                                 const svc::SessionOptions& opts) {
  return svc::serve_session(*this, in, out, opts);
}

void Router::drain_force() {
  prober_->stop();
  for (const auto& up : upstreams_) up->close_idle();
}

}  // namespace ttp::cluster

#endif  // !_WIN32
