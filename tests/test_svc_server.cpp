// The hardened ttp_serve connection layer (svc/server.hpp): bounded session
// registry with shedding, poll-based idle/read deadlines, immediate reaping,
// graceful drain, validated argument parsing, and the TTP_FAULT injector —
// all driven over real sockets on the loopback interface.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/faultnet.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "tt/serialize.hpp"
#include "util/bits.hpp"

namespace ttp::svc {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- helpers

/// A small adequate instance, distinct per index (the weight encodes it).
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

/// The shared wire client (svc/client.hpp), shaped for tests: loopback
/// host, send() asserts, and the convenience reads return partial text on
/// EOF/timeout — exactly what the old hand-rolled socket helper did, minus
/// the hand-rolled sockets.
class Client : public WireClient {
 public:
  explicit Client(int port) : WireClient("127.0.0.1", port) {}

  void send(const std::string& text) {
    ASSERT_TRUE(WireClient::send(text)) << error();
  }

  using WireClient::read_line;
  using WireClient::read_until;
};

/// Service + listening Server with run() on its own thread; joins on exit.
class ServerHarness {
 public:
  ServerHarness(ServiceConfig svc_cfg, ServerConfig srv_cfg)
      : svc(svc_cfg), commands(svc), server(commands, srv_cfg) {
    std::string error;
    listening_ = server.listen(error);
    EXPECT_TRUE(listening_) << error;
    if (listening_) runner_ = std::thread([this] { exit_code_ = server.run(); });
  }
  ~ServerHarness() { stop(); }

  /// Drains and joins; returns run()'s exit code.
  int stop() {
    if (runner_.joinable()) {
      server.begin_drain();
      runner_.join();
    }
    return exit_code_;
  }

  int port() const { return server.port(); }
  std::uint64_t counter(const char* name) {
    return svc.metrics().counter(name).value();
  }

  Service svc;
  ServiceCommands commands;
  Server server;

 private:
  bool listening_ = false;
  std::thread runner_;
  int exit_code_ = -1;
};

/// Spins until pred() or the timeout; returns pred()'s final value.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

// ----------------------------------------------------------- TTP_FAULT plan

TEST(SvcFaultPlan, ParsesTheGrammar) {
  const FaultPlan p =
      FaultPlan::parse("eintr:3,short-read:1,short-write:7,stall:5,"
                       "drop-after:2");
  EXPECT_EQ(p.eintr_every, 3u);
  EXPECT_EQ(p.short_read, 1u);
  EXPECT_EQ(p.short_write, 7u);
  EXPECT_EQ(p.stall_ms, 5);
  EXPECT_EQ(p.drop_after_reads, 2);
  EXPECT_TRUE(p.active());
  EXPECT_FALSE(FaultPlan::parse("").active());
  EXPECT_EQ(FaultPlan{}.drop_after_reads, -1);
}

TEST(SvcFaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("eintr"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("eintr:"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("eintr:x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("eintr:-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("frobnicate:3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("eintr:3,bogus:1"), std::invalid_argument);
}

// ------------------------------------------- fault-injected session streams

/// Runs serve_session over one end of a socketpair whose server-side I/O is
/// fault-injected; the test plays client on the other end.
struct FaultedSession {
  int client_fd = -1;
  std::thread thread;
  SessionResult result;
  FdStreamBuf::Event event = FdStreamBuf::Event::kNone;

  FaultedSession(Service& svc, const FaultPlan& plan,
                 FdStreamBuf::Options extra = {}) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client_fd = fds[0];
    const int server_fd = fds[1];
    extra.faults = plan;
    thread = std::thread([this, &svc, server_fd, extra] {
      FdStreamBuf buf(server_fd, extra);
      std::istream in(&buf);
      std::ostream out(&buf);
      SessionOptions opts;
      opts.control = &buf;
      ServiceCommands commands(svc);
      result = serve_session(commands, in, out, opts);
      out.flush();
      event = buf.event();
      ::close(server_fd);
    });
  }
  ~FaultedSession() {
    if (client_fd >= 0) ::close(client_fd);
    if (thread.joinable()) thread.join();
  }
  void join() { thread.join(); }

  void send(const std::string& text) {
    ASSERT_EQ(::send(client_fd, text.data(), text.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(text.size()));
  }
  std::string read_all() {
    std::string out;
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
      if (n <= 0) return out;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
};

TEST(SvcFaultInjector, EintrStormIsRetriedNotTreatedAsEof) {
  Service svc;
  FaultPlan plan;
  plan.eintr_every = 2;  // every other read/write EINTRs first
  FaultedSession s(svc, plan);
  s.send("PING\nPING\nPING\nQUIT\n");
  ::shutdown(s.client_fd, SHUT_WR);
  s.join();
  EXPECT_EQ(s.result.handled, 4u);
  EXPECT_EQ(s.result.end, SessionEnd::kQuit);
  EXPECT_EQ(s.read_all(), "PONG\nPONG\nPONG\nBYE\n");
}

TEST(SvcFaultInjector, ShortReadsAndWritesStillDeliverWholeFrames) {
  Service svc;
  FaultPlan plan;
  plan.short_read = 1;   // one byte per read
  plan.short_write = 3;  // three bytes per write
  plan.eintr_every = 5;  // and an EINTR storm on top
  FaultedSession s(svc, plan);
  s.send(solve_frame(make_instance(0)) + "QUIT\n");
  ::shutdown(s.client_fd, SHUT_WR);
  s.join();
  const std::string reply = s.read_all();
  EXPECT_EQ(reply.rfind("OK cache=miss", 0), 0u) << reply;
  EXPECT_NE(reply.find("\nEND\nBYE\n"), std::string::npos) << reply;
}

TEST(SvcFaultInjector, MidSolveDisconnectLeavesServiceHealthy) {
  Service svc;
  FaultPlan plan;
  plan.drop_after_reads = 1;  // EOF right after the first successful read
  {
    FaultedSession s(svc, plan);
    s.send("SOLVE\ntt 2\nweights 1 1\n");  // torn frame, never END
    ::shutdown(s.client_fd, SHUT_WR);      // let poll see the disconnect
    s.join();
    EXPECT_EQ(s.result.end, SessionEnd::kEof);
    EXPECT_EQ(s.event, FdStreamBuf::Event::kClientEof);
    // The torn frame got its one-line verdict before the session died.
    EXPECT_EQ(s.read_all().rfind("ERR bad-request", 0), 0u);
  }
  // The Service is unharmed: a well-behaved request still solves.
  const Response res = svc.solve(make_instance(1));
  EXPECT_TRUE(res.ok());
}

TEST(SvcFaultInjector, StalledReadsTripTheFrameDeadline) {
  Service svc;
  FaultPlan plan;
  plan.stall_ms = 40;  // each read stalls well past the frame budget
  FdStreamBuf::Options opts;
  opts.read_timeout_ms = 60;
  opts.idle_timeout_ms = 5000;
  FaultedSession s(svc, plan, opts);
  // The command line arrives, then the body trickles in too slowly: the
  // whole-frame deadline fires even though bytes keep flowing.
  s.send("SOLVE\n");
  std::thread feeder([&] {
    for (int i = 0; i < 50 && s.client_fd >= 0; ++i) {
      if (::send(s.client_fd, "x\n", 2, MSG_NOSIGNAL) != 2) break;
      std::this_thread::sleep_for(10ms);
    }
  });
  s.join();
  feeder.join();
  EXPECT_EQ(s.result.end, SessionEnd::kEof);
  EXPECT_EQ(s.event, FdStreamBuf::Event::kTimedOut);
}

// --------------------------------------------------------- argument parsing

TEST(SvcServeArgs, ParsesEveryFlag) {
  const char* argv[] = {
      "ttp_serve",          "--port=7070",          "--workers=3",
      "--cache-mb=16",      "--shards=4",           "--max-k=12",
      "--max-actions=99",   "--max-queue=7",        "--max-batch=5",
      "--batch-delay-us=50", "--slow-ms=10",        "--slow-log=/tmp/x",
      "--flight-cap=64",    "--max-conns=9",        "--idle-timeout-ms=1000",
      "--read-timeout-ms=200", "--drain-timeout-ms=3000",
      "--max-frame-bytes=4096",
  };
  ServeArgs args;
  std::string error;
  ASSERT_TRUE(parse_serve_args(static_cast<int>(std::size(argv)), argv, args,
                               error))
      << error;
  EXPECT_EQ(args.port, 7070);
  EXPECT_EQ(args.server.port, 7070);
  EXPECT_EQ(args.cfg.workers, 3u);
  EXPECT_EQ(args.cfg.cache.capacity_bytes, std::size_t{16} << 20);
  EXPECT_EQ(args.cfg.cache.shards, 4u);
  EXPECT_EQ(args.cfg.scheduler.max_k, 12);
  EXPECT_EQ(args.cfg.scheduler.max_actions, 99);
  EXPECT_EQ(args.cfg.scheduler.max_queue, 7u);
  EXPECT_EQ(args.cfg.scheduler.max_batch, 5u);
  EXPECT_EQ(args.cfg.telemetry.slow_ms, 10);
  EXPECT_EQ(args.cfg.telemetry.slow_log, "/tmp/x");
  EXPECT_EQ(args.cfg.telemetry.flight_capacity, 64u);
  EXPECT_EQ(args.server.max_conns, 9u);
  EXPECT_EQ(args.server.idle_timeout_ms, 1000);
  EXPECT_EQ(args.server.read_timeout_ms, 200);
  EXPECT_EQ(args.server.drain_timeout_ms, 3000);
  EXPECT_EQ(args.server.max_frame_bytes, 4096u);
}

TEST(SvcServeArgs, RejectsWrappingAndGarbageValues) {
  const std::vector<std::vector<const char*>> bad = {
      {"ttp_serve", "--cache-mb=-1"},   // would wrap to ~2^64 bytes
      {"ttp_serve", "--workers=0"},     // zero pool confusingly = hardware
      {"ttp_serve", "--port=70x"},      // trailing garbage
      {"ttp_serve", "--port=99999"},    // above 65535
      {"ttp_serve", "--max-k=0"},       //
      {"ttp_serve", "--max-k=33"},      // Mask is 32 bits
      {"ttp_serve", "--max-queue=-5"},  //
      {"ttp_serve", "--max-frame-bytes=10"},  // below the 1 KiB floor
      {"ttp_serve", "--drain-timeout-ms=0"},  //
      {"ttp_serve", "--port="},         // empty value
      {"ttp_serve", "--frobnicate=1"},  // unknown flag
      {"ttp_serve", "--ttl-ms=500"},    // no such flag: entries never expire
  };
  for (const auto& argv : bad) {
    ServeArgs args;
    std::string error;
    EXPECT_FALSE(parse_serve_args(static_cast<int>(argv.size()), argv.data(),
                                  args, error))
        << argv[1];
    EXPECT_FALSE(error.empty()) << argv[1];
  }
}

TEST(SvcServeArgs, HelpShortCircuits) {
  const char* argv[] = {"ttp_serve", "--help", "--port=banana"};
  ServeArgs args;
  std::string error;
  ASSERT_TRUE(parse_serve_args(3, argv, args, error));
  EXPECT_TRUE(args.help);
}

// ----------------------------------------------------------- session pool

TEST(SvcServer, ShedsAtMaxConnsWithTypedError) {
  ServerConfig cfg;
  cfg.max_conns = 2;
  cfg.idle_timeout_ms = 10000;
  ServerHarness h(ServiceConfig{}, cfg);

  Client a(h.port()), b(h.port());
  a.send("PING\n");
  b.send("PING\n");
  EXPECT_EQ(a.read_line(), "PONG");
  EXPECT_EQ(b.read_line(), "PONG");

  Client c(h.port());
  ASSERT_TRUE(c.connected());
  const std::string verdict = c.read_line();
  EXPECT_EQ(verdict.rfind("ERR overload", 0), 0u) << verdict;
  EXPECT_GE(h.counter("svc.server.shed"), 1u);
  EXPECT_EQ(h.counter("svc.server.accepted"), 2u);

  // Shedding is not sticky: once a slot frees, new connections are served.
  a.send("QUIT\n");
  EXPECT_EQ(a.read_line(), "BYE");
  ASSERT_TRUE(eventually([&] { return h.server.active_sessions() < 2; }));
  Client d(h.port());
  d.send("PING\n");
  EXPECT_EQ(d.read_line(), "PONG");
  EXPECT_EQ(h.stop(), 0);
}

TEST(SvcServer, RegistryStaysBoundedAcrossManyConnections) {
  // The original serve_tcp pushed one never-joined thread per connection
  // into an unbounded vector; 1000 sequential sessions now leave the
  // registry no larger than max_conns at any point.
  ServerConfig cfg;
  cfg.max_conns = 8;
  ServerHarness h(ServiceConfig{}, cfg);

  for (int i = 0; i < 1000; ++i) {
    Client c(h.port());
    ASSERT_TRUE(c.connected()) << "connection " << i;
    c.send("QUIT\n");
    ASSERT_EQ(c.read_line(), "BYE") << "connection " << i;
  }
  EXPECT_EQ(h.counter("svc.server.accepted"), 1000u);
  EXPECT_LE(h.server.peak_sessions(), cfg.max_conns);
  ASSERT_TRUE(eventually([&] { return h.server.active_sessions() == 0; }));
  EXPECT_EQ(h.stop(), 0);
}

TEST(SvcServer, IdleTimeoutEvictsSilentConnections) {
  ServerConfig cfg;
  cfg.idle_timeout_ms = 100;
  cfg.read_timeout_ms = 5000;
  ServerHarness h(ServiceConfig{}, cfg);

  Client c(h.port());
  ASSERT_TRUE(c.connected());
  const std::string verdict = c.read_line(3000);  // sent nothing at all
  EXPECT_EQ(verdict.rfind("ERR timeout", 0), 0u) << verdict;
  ASSERT_TRUE(eventually([&] { return h.counter("svc.server.timed_out") >= 1; }));
  EXPECT_EQ(h.stop(), 0);
}

TEST(SvcServer, ReadTimeoutEvictsTornFrames) {
  ServerConfig cfg;
  cfg.idle_timeout_ms = 10000;
  cfg.read_timeout_ms = 100;
  ServerHarness h(ServiceConfig{}, cfg);

  Client c(h.port());
  c.send("SOLVE\ntt 2\nweights 1 1\n");  // frame body never finishes
  const std::string verdict = c.read_line(3000);
  EXPECT_EQ(verdict.rfind("ERR timeout", 0), 0u) << verdict;
  ASSERT_TRUE(eventually([&] { return h.counter("svc.server.timed_out") >= 1; }));
  EXPECT_EQ(h.stop(), 0);
}

TEST(SvcServer, AbruptMidSolveDisconnectLeavesServiceHealthy) {
  ServerHarness h(ServiceConfig{}, ServerConfig{});
  {
    Client c(h.port());
    c.send("SOLVE\ntt 2\nweights 1 1\n");
    c.close();  // vanish mid-frame, END never sent
  }
  Client ok(h.port());
  ok.send(solve_frame(make_instance(2)));
  const std::string head = ok.read_line();
  EXPECT_EQ(head.rfind("OK cache=miss", 0), 0u) << head;
  ok.read_until("END");
  EXPECT_EQ(h.stop(), 0);
}

TEST(SvcServer, OversizeFrameGetsItsVerdictEarly) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 1024;
  ServerHarness h(ServiceConfig{}, cfg);

  Client c(h.port());
  std::string frame = "SOLVE\n";
  frame.append(2048, 'x');
  c.send(frame + "\n");  // END still unsent — the verdict must not wait
  const std::string verdict = c.read_line(3000);
  EXPECT_EQ(verdict.rfind("ERR oversize", 0), 0u) << verdict;
  // Finish the frame: the session stays in protocol sync.
  c.send("END\nPING\n");
  EXPECT_EQ(c.read_line(), "PONG");
  EXPECT_EQ(h.stop(), 0);
}

TEST(SvcServer, DrainCompletesInflightSolvesAndExitsInBudget) {
  // The ISSUE's drain proof: 16 concurrent in-flight SOLVEs, drain begins,
  // every request still gets a terminal reply (OK or ERR cancelled), an
  // idle connection gets BYE, and run() returns 0 within the budget.
  ServiceConfig svc_cfg;
  svc_cfg.scheduler.batch_delay = std::chrono::microseconds(200'000);
  svc_cfg.scheduler.max_batch = 16;
  ServerConfig cfg;
  cfg.max_conns = 64;
  cfg.drain_timeout_ms = 8000;
  ServerHarness h(svc_cfg, cfg);

  Client idle(h.port());
  ASSERT_TRUE(idle.connected());

  struct Result {
    std::string head;
    std::string tail;
  };
  std::vector<Result> results(16);
  std::vector<std::thread> clients;
  clients.reserve(16);
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&, i] {
      Client c(h.port());
      c.send(solve_frame(make_instance(i)));
      results[static_cast<std::size_t>(i)].head = c.read_line(10000);
      if (results[static_cast<std::size_t>(i)].head.rfind("OK", 0) == 0) {
        c.read_until("END", 10000);
      }
      results[static_cast<std::size_t>(i)].tail = c.read_line(10000);
    });
  }
  // All 16 are in flight (admitted to the scheduler, held by batch_delay).
  ASSERT_TRUE(eventually(
      [&] { return h.counter("svc.sched.leaders") >= 16; }, 5000));

  const auto t0 = std::chrono::steady_clock::now();
  h.server.begin_drain();
  const int exit_code = h.stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(exit_code, 0);
  EXPECT_LT(elapsed.count(), cfg.drain_timeout_ms + 2000);

  for (std::thread& t : clients) t.join();
  for (const Result& r : results) {
    const bool terminal = r.head.rfind("OK cache=", 0) == 0 ||
                          r.head.rfind("ERR cancelled", 0) == 0;
    EXPECT_TRUE(terminal) << "non-terminal reply: '" << r.head << "'";
    if (r.head.rfind("OK", 0) == 0) {
      EXPECT_EQ(r.tail, "BYE") << r.tail;
    }
  }
  // The idle session was told goodbye rather than being cut.
  EXPECT_EQ(idle.read_line(), "BYE");
  EXPECT_GE(h.counter("svc.server.drained"), 1u);
  EXPECT_TRUE(h.svc.draining());
}

TEST(SvcServer, SlowlorisCannotDelayOtherClients) {
  // One connection stuck mid-frame must not affect a concurrent
  // well-behaved client's latency (thread-per-session isolation), and is
  // evicted on its own frame deadline.
  ServerConfig cfg;
  cfg.read_timeout_ms = 400;
  ServerHarness h(ServiceConfig{}, cfg);

  Client slow(h.port());
  ASSERT_TRUE(slow.connected());
  slow.send("SOLVE\ntt 2\n");  // frame begun; the body now stalls

  Client fast(h.port());
  const auto t0 = std::chrono::steady_clock::now();
  fast.send(solve_frame(make_instance(7)));
  const std::string head = fast.read_line();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_EQ(head.rfind("OK cache=miss", 0), 0u) << head;
  EXPECT_LT(ms, 2000) << "slowloris delayed a healthy client";
  // And the slowloris is evicted on its own schedule.
  const std::string verdict = slow.read_line(3000);
  EXPECT_EQ(verdict.rfind("ERR timeout", 0), 0u) << verdict;
  EXPECT_EQ(h.stop(), 0);
}

TEST(SvcServer, HealthReportsDrainingDuringDrain) {
  ServerHarness h(ServiceConfig{}, ServerConfig{});
  EXPECT_FALSE(h.svc.draining());
  EXPECT_EQ(h.svc.health_text().rfind("ready", 0), 0u);
  h.server.begin_drain();
  EXPECT_TRUE(h.svc.draining());
  EXPECT_EQ(h.svc.health_text().rfind("draining", 0), 0u);
  EXPECT_EQ(h.stop(), 0);
}

TEST(SvcServer, SchedulerSubmitAfterStopResolvesCancelled) {
  // The drain path's backstop: a request racing scheduler shutdown gets a
  // terminal kCancelled immediately instead of hanging on a dead queue.
  Service svc;
  svc.scheduler().stop();
  const Response res = svc.solve(make_instance(3));
  EXPECT_EQ(res.status, Status::kCancelled);
}

}  // namespace
}  // namespace ttp::svc
