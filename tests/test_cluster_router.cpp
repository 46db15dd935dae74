// The cluster routing tier (cluster/router.hpp) over real loopback
// sockets: argument parsing, key-affinity forwarding with byte-faithful
// relays, failover under concurrent load while a backend dies, failover
// from a black-holed primary after the request timeout, health-probe
// ejection and readmission, and the typed ERR upstream terminal state.
// Suite names start with Svc so the CI TSan filter (Svc*:Flight*:Quantile*)
// covers them.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "svc/client.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "tt/serialize.hpp"
#include "util/bits.hpp"

namespace ttp::cluster {
namespace {

using namespace std::chrono_literals;
using svc::Server;
using svc::ServerConfig;
using svc::Service;
using svc::ServiceCommands;
using svc::ServiceConfig;
using svc::WireClient;

tt::Instance make_instance(int idx) {
  tt::Instance ins(4, {1.0, 2.0, 3.0, 4.0 + idx});
  ins.add_test(util::bit(0) | util::bit(1), 1.0, "t0");
  ins.add_test(util::bit(1) | util::bit(2), 1.5, "t1");
  for (int j = 0; j < 4; ++j) {
    ins.add_treatment(util::bit(j), 2.0, "c" + std::to_string(j));
  }
  return ins;
}

std::string solve_frame(const tt::Instance& ins) {
  return "SOLVE\n" + tt::to_text(ins) + "END\n";
}

bool eventually(const std::function<bool()>& cond, int budget_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return cond();
}

/// One real ttp_serve backend: Service + its handler + Server + runner
/// thread.
class Backend {
 public:
  explicit Backend(int port = 0, ServiceConfig svc_cfg = {}) {
    ServerConfig cfg;
    cfg.port = port;
    srv_ = std::make_unique<Service>(svc_cfg);
    commands_ = std::make_unique<ServiceCommands>(*srv_);
    server_ = std::make_unique<Server>(*commands_, cfg);
    std::string error;
    listening_ = server_->listen(error);
    EXPECT_TRUE(listening_) << error;
    if (listening_) {
      runner_ = std::thread([this] { server_->run(); });
    }
  }
  ~Backend() { stop(); }

  void stop() {
    if (runner_.joinable()) {
      server_->begin_drain();
      runner_.join();
    }
  }

  int port() const { return server_->port(); }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(port());
  }
  Service& service() { return *srv_; }

 private:
  std::unique_ptr<Service> srv_;
  std::unique_ptr<ServiceCommands> commands_;
  std::unique_ptr<Server> server_;
  bool listening_ = false;
  std::thread runner_;
};

/// Accepts connections and never replies — a stuck-but-alive backend.
class BlackHole {
 public:
  BlackHole() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    accepter_ = std::thread([this] {
      for (;;) {
        const int c = ::accept(fd_, nullptr, nullptr);
        if (c < 0) return;  // listener closed
        std::lock_guard<std::mutex> lock(mu_);
        accepted_.push_back(c);  // hold open, never reply
      }
    });
  }
  ~BlackHole() {
    // Wake the blocked accept() and join before closing the fd, so the
    // accepter can never race a reused descriptor number.
    ::shutdown(fd_, SHUT_RDWR);
    if (accepter_.joinable()) accepter_.join();
    ::close(fd_);
    std::lock_guard<std::mutex> lock(mu_);
    for (const int c : accepted_) ::close(c);
  }
  int port() const { return port_; }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::thread accepter_;
  std::mutex mu_;
  std::vector<int> accepted_;
};

/// A port that refuses connections: bind, read the port, close.
/// A loopback port that refuses connections for the holder's lifetime:
/// the socket is bound but never listens, so a connect gets ECONNREFUSED,
/// and while it stays bound no other test's listen(0) can take the port.
class DeadPort {
 public:
  DeadPort() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~DeadPort() { ::close(fd_); }
  DeadPort(const DeadPort&) = delete;
  DeadPort& operator=(const DeadPort&) = delete;

  int port() const { return port_; }

 private:
  int fd_;
  int port_ = 0;
};

RouterConfig fast_cfg() {
  RouterConfig cfg;
  cfg.upstream.connect_timeout_ms = 500;
  cfg.upstream.request_timeout_ms = 5000;
  cfg.health.probe_timeout_ms = 300;
  return cfg;
}

/// Router + its own front-end Server + runner thread.
class RouterHarness {
 public:
  RouterHarness(std::vector<std::string> backends, RouterConfig cfg,
                bool start_prober = false) {
    router_ = std::make_unique<Router>(std::move(backends), cfg);
    if (start_prober) router_->start_prober();
    ServerConfig srv;
    srv.port = 0;
    server_ = std::make_unique<Server>(*router_, srv);
    std::string error;
    listening_ = server_->listen(error);
    EXPECT_TRUE(listening_) << error;
    if (listening_) {
      runner_ = std::thread([this] { exit_code_ = server_->run(); });
    }
  }
  ~RouterHarness() { stop(); }

  int stop() {
    if (runner_.joinable()) {
      server_->begin_drain();
      runner_.join();
    }
    return exit_code_;
  }

  int port() const { return server_->port(); }
  Router& router() { return *router_; }
  std::uint64_t counter(const char* name) {
    return router_->metrics().counter(name).value();
  }

 private:
  std::unique_ptr<Router> router_;
  std::unique_ptr<Server> server_;
  bool listening_ = false;
  int exit_code_ = -1;
  std::thread runner_;
};

struct SolveReply {
  std::string head;
  std::vector<std::string> body;  ///< Lines up to END (exclusive).
  bool complete = false;
};

SolveReply solve_via(int port, const tt::Instance& ins,
                     int timeout_ms = 10000) {
  SolveReply r;
  WireClient c("127.0.0.1", port);
  if (!c.connected()) return r;
  if (!c.send(solve_frame(ins))) return r;
  if (!c.read_line(r.head, timeout_ms)) return r;
  if (r.head.rfind("ERR ", 0) == 0) {
    r.complete = true;  // typed error is a complete protocol outcome
    return r;
  }
  r.complete = c.read_until("END", r.body, timeout_ms);
  return r;
}

/// Strips the request-unique fields (cache outcome, trace id) from an OK
/// head, keeping cost and nodes — the parts that must match across
/// backends and through the router.
std::string head_essence(const std::string& head) {
  std::istringstream is(head);
  std::string tok, out;
  while (is >> tok) {
    if (tok.rfind("cache=", 0) == 0 || tok.rfind("trace=", 0) == 0) continue;
    out += tok;
    out += ' ';
  }
  return out;
}

// ------------------------------------------------------------- arg parsing

TEST(SvcRouterArgs, RequiresAtLeastOneBackend) {
  const char* argv[] = {"ttp_router", "--port=0"};
  RouterArgs args;
  std::string error;
  EXPECT_FALSE(parse_router_args(2, argv, args, error));
  EXPECT_NE(error.find("--backend"), std::string::npos) << error;
}

TEST(SvcRouterArgs, ParsesFullFlagSet) {
  const char* argv[] = {"ttp_router",
                        "--port=7070",
                        "--backend=a:1",
                        "--backend=b:2",
                        "--vnodes=64",
                        "--retries=3",
                        "--connect-timeout-ms=100",
                        "--request-timeout-ms=2000",
                        "--pool-size=4",
                        "--probe-interval-ms=50",
                        "--probe-timeout-ms=80",
                        "--eject-after=2",
                        "--readmit-after=1",
                        "--max-conns=32",
                        "--max-frame-bytes=65536"};
  RouterArgs args;
  std::string error;
  ASSERT_TRUE(parse_router_args(15, argv, args, error)) << error;
  EXPECT_EQ(args.port, 7070);
  EXPECT_EQ(args.backends, (std::vector<std::string>{"a:1", "b:2"}));
  EXPECT_EQ(args.cfg.vnodes, 64);
  EXPECT_EQ(args.cfg.retries, 3);
  EXPECT_EQ(args.cfg.upstream.connect_timeout_ms, 100);
  EXPECT_EQ(args.cfg.upstream.request_timeout_ms, 2000);
  EXPECT_EQ(args.cfg.upstream.pool_size, 4u);
  EXPECT_EQ(args.cfg.health.probe_interval_ms, 50);
  EXPECT_EQ(args.cfg.health.probe_timeout_ms, 80);
  EXPECT_EQ(args.cfg.health.eject_after, 2);
  EXPECT_EQ(args.cfg.health.readmit_after, 1);
  EXPECT_EQ(args.server.max_conns, 32u);
  // The session pool's cap is the one that applies to SOLVE frames.
  EXPECT_EQ(args.server.max_frame_bytes, 65536u);
  EXPECT_EQ(args.server.port, 7070);
}

TEST(SvcRouterArgs, RejectsDuplicateBackends) {
  const char* argv[] = {"ttp_router", "--backend=h:1", "--backend=h:1"};
  RouterArgs args;
  std::string error;
  EXPECT_FALSE(parse_router_args(3, argv, args, error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(SvcRouterArgs, RejectsOutOfRangeValues) {
  for (const char* bad :
       {"--vnodes=0", "--retries=17", "--request-timeout-ms=0",
        "--pool-size=9999", "--eject-after=0", "--port=65536",
        "--vnodes=12x"}) {
    const char* argv[] = {"ttp_router", "--backend=h:1", bad};
    RouterArgs args;
    std::string error;
    EXPECT_FALSE(parse_router_args(3, argv, args, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(SvcRouterArgs, HelpShortCircuits) {
  const char* argv[] = {"ttp_router", "--help"};
  RouterArgs args;
  std::string error;
  ASSERT_TRUE(parse_router_args(2, argv, args, error));
  EXPECT_TRUE(args.help);
}

TEST(SvcRouter, RejectsMalformedBackendAddresses) {
  for (const std::string bad :
       {"nohost", "host:", ":7070", "host:0", "host:99999", "host:7x"}) {
    EXPECT_THROW(Router({bad}, RouterConfig{}), std::invalid_argument)
        << bad;
  }
}

// ------------------------------------------------------- basic forwarding

TEST(SvcRouter, ForwardsSolvesAndRelaysRepliesFaithfully) {
  Backend b1, b2;
  RouterHarness rh({b1.address(), b2.address()}, fast_cfg());

  for (int i = 0; i < 8; ++i) {
    const tt::Instance ins = make_instance(i);
    const SolveReply direct = solve_via(b1.port(), ins);
    ASSERT_TRUE(direct.complete) << "direct solve " << i;
    ASSERT_EQ(direct.head.rfind("OK ", 0), 0u) << direct.head;

    const SolveReply routed = solve_via(rh.port(), ins);
    ASSERT_TRUE(routed.complete) << "routed solve " << i;
    ASSERT_EQ(routed.head.rfind("OK ", 0), 0u) << routed.head;

    // Cost, node count, and the tree bytes are identical through the
    // router; cache outcome and trace id are per-request.
    EXPECT_EQ(head_essence(routed.head), head_essence(direct.head));
    EXPECT_EQ(routed.body, direct.body) << "tree bytes differ for " << i;
  }
  EXPECT_EQ(rh.counter("cluster.routed"), 8u);
  EXPECT_EQ(rh.counter("cluster.upstream_errors"), 0u);
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, KeyAffinityConcentratesRepeatsOnOneBackendCache) {
  Backend b1, b2, b3;
  RouterHarness rh({b1.address(), b2.address(), b3.address()}, fast_cfg());

  // The same instance through the router repeatedly: after the first miss
  // every reply must be a cache hit, which can only happen if the router
  // sends the key to the same backend each time.
  const tt::Instance ins = make_instance(42);
  const SolveReply first = solve_via(rh.port(), ins);
  ASSERT_TRUE(first.complete);
  ASSERT_EQ(first.head.rfind("OK ", 0), 0u) << first.head;
  for (int i = 0; i < 5; ++i) {
    const SolveReply again = solve_via(rh.port(), ins);
    ASSERT_TRUE(again.complete);
    EXPECT_NE(again.head.find("cache=hit"), std::string::npos) << again.head;
  }
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, RelaysTypedBackendErrorsWithoutRetry) {
  // The backend's sparse tier is off (--max-sparse-k=0), so k=22 — over
  // the default --max-k=20 — gets its (k) verdict at submit. With the tier
  // on, this singleton-treatment instance would be refused only after its
  // capped closure expanded ~1.68M states, which under TSan outlasts the
  // router's request timeout; that path has its own coverage
  // (SvcFrontierAdmission.*, serve_smoke.py's over-budget check).
  ServiceConfig no_sparse;
  no_sparse.scheduler.max_sparse_k = 0;
  Backend b1(0, no_sparse);
  RouterHarness rh({b1.address()}, fast_cfg());

  WireClient c("127.0.0.1", rh.port());
  ASSERT_TRUE(c.connected());
  // A well-formed instance past the backend's admission limit: the backend
  // answers ERR oversize, and the router must relay that typed verdict —
  // not retry it (every replica would refuse identically) and not mask it
  // as an upstream failure.
  tt::Instance big(22, std::vector<double>(22, 1.0));
  big.add_test(util::bit(0) | util::bit(1), 1.0, "t0");
  for (int j = 0; j < 22; ++j) {
    big.add_treatment(util::bit(j), 2.0, "c" + std::to_string(j));
  }
  ASSERT_TRUE(c.send(solve_frame(big)));
  const std::string verdict = c.read_line();
  EXPECT_EQ(verdict.rfind("ERR oversize", 0), 0u) << verdict;
  EXPECT_EQ(rh.counter("cluster.retried"), 0u);
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, RejectsUnparseableFramesLocally) {
  Backend b1;
  RouterHarness rh({b1.address()}, fast_cfg());
  WireClient c("127.0.0.1", rh.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send("SOLVE\nthis is not an instance\nEND\n"));
  const std::string verdict = c.read_line();
  EXPECT_EQ(verdict.rfind("ERR bad-request", 0), 0u) << verdict;
  // Weights whose priors underflow to 0 parse as numbers but are no
  // instance either.
  ASSERT_TRUE(c.send(
      "SOLVE\ntt 2\nweights 1e-300 1e308\ntreat t {0,1} 1\nEND\n"));
  const std::string unnormalizable = c.read_line();
  EXPECT_EQ(unnormalizable.rfind("ERR bad-request", 0), 0u) << unnormalizable;
  // The garbage never reached the backend.
  EXPECT_EQ(b1.service().metrics().counter("svc.requests").value(), 0u);
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, SessionProtocolMirrorsServe) {
  Backend b1;
  RouterHarness rh({b1.address()}, fast_cfg());
  WireClient c("127.0.0.1", rh.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send("PING\nNONSENSE\nQUIT\n"));
  EXPECT_EQ(c.read_line(), "PONG");
  EXPECT_EQ(c.read_line().rfind("ERR bad-request", 0), 0u);
  EXPECT_EQ(c.read_line(), "BYE");
  EXPECT_EQ(rh.stop(), 0);
}

// ----------------------------------------------------- STATS/METRICS/etc.

TEST(SvcRouter, ExposesClusterCountersAndRingState) {
  Backend b1, b2;
  RouterHarness rh({b1.address(), b2.address()}, fast_cfg());
  solve_via(rh.port(), make_instance(1));

  WireClient c("127.0.0.1", rh.port());
  ASSERT_TRUE(c.send("STATS\n"));
  EXPECT_EQ(c.read_line(), "STATS");
  std::vector<std::string> stats;
  ASSERT_TRUE(c.read_until("END", stats, 5000));
  const std::string all = [&] {
    std::string s;
    for (const auto& l : stats) s += l + "\n";
    return s;
  }();
  EXPECT_NE(all.find("ring.backends: 2"), std::string::npos) << all;
  EXPECT_NE(all.find("cluster.routed = 1"), std::string::npos) << all;
  EXPECT_NE(all.find("svc.server.accepted"), std::string::npos) << all;

  ASSERT_TRUE(c.send("METRICS\n"));
  EXPECT_EQ(c.read_line(), "METRICS");
  std::vector<std::string> metrics;
  ASSERT_TRUE(c.read_until("END", metrics, 5000));
  const std::string prom = [&] {
    std::string s;
    for (const auto& l : metrics) s += l + "\n";
    return s;
  }();
  EXPECT_NE(prom.find("cluster_routed_total 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("ttp_build_info{role=\"router\"}"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("ttp_svc_latency_seconds{stage=\"e2e\""),
            std::string::npos)
      << prom;

  ASSERT_TRUE(c.send("HEALTH\n"));
  EXPECT_EQ(c.read_line(), "HEALTH");
  std::vector<std::string> health;
  ASSERT_TRUE(c.read_until("END", health, 5000));
  ASSERT_FALSE(health.empty());
  EXPECT_EQ(health[0], "ready");
  const std::string htext = [&] {
    std::string s;
    for (const auto& l : health) s += l + "\n";
    return s;
  }();
  EXPECT_NE(htext.find("backends.total: 2"), std::string::npos) << htext;
  EXPECT_NE(htext.find("backends.routable: 2"), std::string::npos) << htext;
  EXPECT_NE(htext.find(": healthy"), std::string::npos) << htext;
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, MetricsCarryTheRouterTimelineStages) {
  Backend b1, b2;
  RouterHarness rh({b1.address(), b2.address()}, fast_cfg());
  // One session: each SOLVE's timeline is published before the session
  // reads its next command, so the METRICS below sees all three.
  WireClient c("127.0.0.1", rh.port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(c.send(solve_frame(make_instance(i))));
    ASSERT_EQ(c.read_line().rfind("OK ", 0), 0u);
    std::vector<std::string> tree;
    ASSERT_TRUE(c.read_until("END", tree, 5000));
  }
  ASSERT_TRUE(c.send("METRICS\n"));
  EXPECT_EQ(c.read_line(), "METRICS");
  std::vector<std::string> metrics;
  ASSERT_TRUE(c.read_until("END", metrics, 5000));
  const auto sample = [&](const std::string& name) {
    for (const auto& l : metrics) {
      if (l.rfind(name + " ", 0) == 0) return std::stod(l.substr(name.size()));
    }
    ADD_FAILURE() << "METRICS lacks " << name;
    return -1.0;
  };
  double stages_s = 0;
  for (const char* stage : {"read", "parse", "admit", "upstream", "write"}) {
    const std::string label = std::string("{stage=\"") + stage + "\"}";
    EXPECT_EQ(sample("ttp_svc_latency_seconds_count" + label), 3.0) << stage;
    const double sum = sample("ttp_svc_latency_seconds_sum" + label);
    EXPECT_GT(sum, 0.0) << stage;
    stages_s += sum;
  }
  EXPECT_EQ(sample("ttp_svc_latency_seconds_count{stage=\"e2e\"}"), 3.0);
  // e2e is read to write: the stages partition it.
  const double e2e_s = sample("ttp_svc_latency_seconds_sum{stage=\"e2e\"}");
  EXPECT_NEAR(stages_s, e2e_s, 1e-9 + 1e-9 * e2e_s);
  for (const auto& l : metrics) {
    EXPECT_EQ(l.find("stage=\"queue\""), std::string::npos) << l;
  }
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, TraceLookupsFanOutToBackends) {
  Backend b1, b2;
  RouterHarness rh({b1.address(), b2.address()}, fast_cfg());

  const SolveReply r = solve_via(rh.port(), make_instance(3));
  ASSERT_TRUE(r.complete);
  const std::size_t pos = r.head.find("trace=");
  ASSERT_NE(pos, std::string::npos) << r.head;
  const std::string id = r.head.substr(pos + 6, 16);

  WireClient c("127.0.0.1", rh.port());
  ASSERT_TRUE(c.send("TRACE " + id + "\n"));
  EXPECT_EQ(c.read_line(), "TRACE");
  std::vector<std::string> body;
  ASSERT_TRUE(c.read_until("END", body, 5000));
  bool found_trace_line = false;
  for (const auto& l : body) {
    if (l == "trace: " + id) found_trace_line = true;
  }
  EXPECT_TRUE(found_trace_line) << r.head;

  ASSERT_TRUE(c.send("TRACE 0123456789abcdef\n"));
  EXPECT_EQ(c.read_line().rfind("ERR not-found", 0), 0u);
  EXPECT_EQ(rh.stop(), 0);
}

// ------------------------------------------------------------- resilience

TEST(SvcRouter, FailsOverUnderConcurrentLoadWhenABackendDies) {
  Backend b1, b2, b3;
  RouterConfig cfg = fast_cfg();
  cfg.retries = 2;
  RouterHarness rh({b1.address(), b2.address(), b3.address()}, cfg);

  constexpr int kThreads = 64;
  std::atomic<int> ok{0}, typed{0}, broken{0};
  std::atomic<bool> killed{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each worker solves several distinct instances; midway through the
      // barrage one backend dies for good.
      for (int i = 0; i < 4; ++i) {
        const SolveReply r =
            solve_via(rh.port(), make_instance(t * 7 + i), 15000);
        if (r.head.rfind("OK ", 0) == 0 && r.complete) {
          ok.fetch_add(1);
        } else if (r.head.rfind("ERR ", 0) == 0) {
          typed.fetch_add(1);
        } else {
          broken.fetch_add(1);
        }
        if (t == 0 && i == 1 && !killed.exchange(true)) b2.stop();
      }
    });
  }
  for (auto& w : workers) w.join();

  // The contract under failover: every request ends in a relayed OK or a
  // typed ERR — never a hang, torn frame, or empty reply.
  EXPECT_EQ(broken.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(ok.load() + typed.load(), kThreads * 4);
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, RetriesTransportFailuresOnNextReplica) {
  Backend alive;
  const DeadPort dead;
  RouterConfig cfg = fast_cfg();
  cfg.retries = 2;
  // Both orders: whichever replica a key prefers, one of them refuses
  // connections, so some solve exercises the retry path.
  RouterHarness rh({"127.0.0.1:" + std::to_string(dead.port()),
                    alive.address()},
                   cfg);
  int retried_keys = 0;
  for (int i = 0; i < 12; ++i) {
    const SolveReply r = solve_via(rh.port(), make_instance(i));
    ASSERT_TRUE(r.complete) << i;
    ASSERT_EQ(r.head.rfind("OK ", 0), 0u) << r.head;
  }
  retried_keys = static_cast<int>(rh.counter("cluster.retried"));
  EXPECT_GT(retried_keys, 0) << "no key preferred the dead backend in 12 "
                                "instances — distribution bug";
  EXPECT_EQ(rh.counter("cluster.upstream_errors"), 0u);
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, AllReplicasDownYieldsTypedUpstreamError) {
  const DeadPort d1, d2;
  RouterConfig cfg = fast_cfg();
  cfg.retries = 3;
  RouterHarness rh({"127.0.0.1:" + std::to_string(d1.port()),
                    "127.0.0.1:" + std::to_string(d2.port())},
                   cfg);
  WireClient c("127.0.0.1", rh.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send(solve_frame(make_instance(0))));
  const std::string verdict = c.read_line(10000);
  EXPECT_EQ(verdict.rfind("ERR upstream", 0), 0u) << verdict;
  // The session survives the upstream failure: the protocol stays in sync.
  ASSERT_TRUE(c.send("PING\n"));
  EXPECT_EQ(c.read_line(), "PONG");
  EXPECT_GE(rh.counter("cluster.upstream_errors"), 1u);
  EXPECT_EQ(rh.stop(), 0);
}

TEST(SvcRouter, FailsOverFromAStuckPrimaryAfterTheRequestTimeout) {
  BlackHole stuck;
  Backend alive;
  RouterConfig cfg = fast_cfg();
  cfg.upstream.request_timeout_ms = 300;
  cfg.retries = 1;
  RouterHarness rh({stuck.address(), alive.address()}, cfg);

  // Keys whose primary is the black hole: the first attempt is accepted
  // and never answered, so each must time out and move to the live
  // replica (the prober is not running, so nothing ejects the hole).
  const Ring& ring = rh.router().ring();
  std::vector<int> stuck_primaries;
  for (int i = 0; i < 200 && stuck_primaries.size() < 3; ++i) {
    const svc::CanonKey key = svc::canonicalize(make_instance(i)).key;
    if (ring.backend(ring.primary(key)) == stuck.address()) {
      stuck_primaries.push_back(i);
    }
  }
  ASSERT_GE(stuck_primaries.size(), 3u);

  std::uint64_t requests = 0;
  for (const int i : stuck_primaries) {
    const SolveReply r = solve_via(rh.port(), make_instance(i));
    ASSERT_TRUE(r.complete) << i;
    EXPECT_EQ(r.head.rfind("OK ", 0), 0u) << r.head;
    EXPECT_EQ(rh.counter("cluster.retried"), ++requests);
  }
  EXPECT_EQ(rh.counter("cluster.upstream_errors"), 0u);
  EXPECT_EQ(rh.stop(), 0);
}

// -------------------------------------------------------- health probing

TEST(SvcRouter, ProberEjectsDeadBackendsAndReadmitsOnRecovery) {
  Backend stable;
  auto victim = std::make_unique<Backend>();
  const int victim_port = victim->port();
  RouterConfig cfg = fast_cfg();
  cfg.health.eject_after = 2;
  cfg.health.readmit_after = 2;
  Router router({stable.address(), victim->address()}, cfg);

  router.prober().probe_all();
  EXPECT_TRUE(router.upstream(0).routable());
  EXPECT_TRUE(router.upstream(1).routable());

  victim->stop();
  victim.reset();
  router.prober().probe_all();
  EXPECT_TRUE(router.upstream(1).routable()) << "one failure must not eject";
  router.prober().probe_all();
  EXPECT_FALSE(router.upstream(1).routable());
  EXPECT_EQ(router.metrics().counter("cluster.ejected").value(), 1u);
  EXPECT_EQ(router.upstream(1).state(), Upstream::State::kEjected);

  // Every SOLVE now routes to the survivor.
  for (int i = 0; i < 6; ++i) {
    std::istringstream in(solve_frame(make_instance(i)));
    std::ostringstream out;
    svc::serve_session(router, in, out, svc::SessionOptions{});
    EXPECT_EQ(out.str().rfind("OK ", 0), 0u) << out.str();
  }

  // Restart on the same port; readmission needs a success streak.
  Backend revived(victim_port);
  ASSERT_EQ(revived.port(), victim_port);
  router.prober().probe_all();
  EXPECT_FALSE(router.upstream(1).routable())
      << "one success must not readmit";
  router.prober().probe_all();
  EXPECT_TRUE(router.upstream(1).routable());
  EXPECT_EQ(router.metrics().counter("cluster.readmitted").value(), 1u);

  const std::string health = router.health_text();
  EXPECT_NE(health.find("backends.routable: 2"), std::string::npos)
      << health;
}

TEST(SvcRouter, ProberMarksDrainingBackendsUnroutable) {
  Backend b1, b2;
  RouterConfig cfg = fast_cfg();
  Router router({b1.address(), b2.address()}, cfg);
  router.prober().probe_all();
  EXPECT_TRUE(router.upstream(1).routable());

  b2.service().set_draining(true);
  router.prober().probe_all();
  EXPECT_EQ(router.upstream(1).state(), Upstream::State::kDraining);
  EXPECT_FALSE(router.upstream(1).routable());
  // Draining is not a failure: no ejection counted.
  EXPECT_EQ(router.metrics().counter("cluster.ejected").value(), 0u);

  b2.service().set_draining(false);
  router.prober().probe_all();
  EXPECT_TRUE(router.upstream(1).routable());
}

TEST(SvcRouter, BackgroundProberRunsWithoutManualDriving) {
  Backend b1;
  RouterConfig cfg = fast_cfg();
  cfg.health.probe_interval_ms = 20;
  Router router({b1.address()}, cfg);
  router.start_prober();
  EXPECT_TRUE(eventually([&] { return router.prober().rounds() >= 3; }));
  router.prober().stop();
  EXPECT_GE(router.metrics().counter("cluster.probes").value(), 3u);
}

// ---------------------------------------------------------- pooled conns

TEST(SvcRouter, ReusesPooledConnectionsAcrossSolves) {
  Backend b1;
  RouterHarness rh({b1.address()}, fast_cfg());
  const tt::Instance ins = make_instance(9);
  for (int i = 0; i < 5; ++i) {
    const SolveReply r = solve_via(rh.port(), ins);
    ASSERT_TRUE(r.complete);
    ASSERT_EQ(r.head.rfind("OK ", 0), 0u);
  }
  const std::string addr = b1.address();
  const std::uint64_t dialed =
      rh.counter(("cluster.backend." + addr + ".connects").c_str());
  const std::uint64_t reused =
      rh.counter(("cluster.backend." + addr + ".reused").c_str());
  EXPECT_EQ(dialed, 1u) << "every solve dialed a fresh connection";
  EXPECT_EQ(reused, 4u);
  EXPECT_EQ(rh.stop(), 0);
}

}  // namespace
}  // namespace ttp::cluster
