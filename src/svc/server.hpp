// The TCP front end both daemons share: a supervised session pool with a
// bounded connection lifecycle. Every session runs serve_session over the
// daemon's one CommandHandler (svc/wire.hpp) — ttp_serve's ServiceCommands,
// ttp_router's Router — which also names the registry for the counters
// below and answers the drain hooks.
//
// Lifecycle of a connection:
//
//   accept ──► registry full? ──yes──► "ERR overload" + close  (shed)
//      │ no
//      ▼
//   session thread: FdStreamBuf (poll-based deadlines, EINTR-safe,
//   TTP_FAULT-aware) drives serve_session over the handler
//      │
//      ├─ idle past --idle-timeout-ms, or a frame torn past
//      │  --read-timeout-ms  ──► "ERR timeout" + close   (timed_out)
//      ├─ QUIT / client EOF  ──► close                   (reaped)
//      └─ drain flag at a command boundary ──► "BYE" + close (drained)
//
// Finished sessions are reaped (joined) continuously from the accept loop,
// so the registry never holds more than max_conns live threads plus the
// handful finished since the last tick.
//
// Graceful drain: SIGTERM/SIGINT call Server::begin_drain() (an atomic
// store — async-signal-safe — plus the handler's drain_begin). The accept
// loop notices within one poll slice, closes the listener, and waits for
// sessions to finish naturally: in-flight SOLVEs complete and get their OK
// replies, idle sessions get BYE. If sessions remain near the
// --drain-timeout-ms budget, the handler's drain_force cancels pending work
// (ttp_serve stops its scheduler, so pending solves resolve kCancelled and
// blocked sessions still send a terminal "ERR cancelled" reply) and
// remaining sockets are shut down; run() then returns 0 — the daemon exits
// cleanly within the drain budget no matter what clients do.
//
// Counters (in the handler's registry, visible via STATS/METRICS):
//   svc.server.accepted   sessions admitted
//   svc.server.shed       connections refused at max_conns
//   svc.server.timed_out  sessions evicted by a deadline
//   svc.server.drained    sessions ended by graceful drain
// plus the svc.server.active gauge.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "svc/faultnet.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace ttp::svc {

/// Connection-lifecycle knobs (the service-level knobs live in
/// ServiceConfig; see parse_serve_args for the flag spellings).
struct ServerConfig {
  int port = 0;                 ///< TCP port; 0 = ephemeral (see Server::port).
  std::size_t max_conns = 256;  ///< Session registry cap; then shed.
  int idle_timeout_ms = 60000;  ///< Between commands; 0 = no idle deadline.
  int read_timeout_ms = 5000;   ///< Whole-frame arrival budget; 0 = none.
  int drain_timeout_ms = 5000;  ///< SIGTERM -> exit-0 budget.
  std::size_t max_frame_bytes = std::size_t{1} << 20;  ///< SOLVE body cap.
};

/// Everything ttp_serve's command line configures.
struct ServeArgs {
  int port = -1;  ///< -1 = stdio mode.
  bool help = false;
  ServiceConfig cfg;
  ServerConfig server;
};

/// Parses and range-validates the ttp_serve argument vector. Returns false
/// and sets `error` (flag name + accepted range) on any malformed value —
/// including negative/zero counts that would wrap to huge unsigned config
/// fields (--cache-mb=-1, --workers=0) and trailing garbage (--port=70x).
/// --help/-h sets args.help and returns true without parsing further.
bool parse_serve_args(int argc, const char* const* argv, ServeArgs& args,
                      std::string& error);

/// One numeric "--name=N" flag of a daemon's command line.
struct LongFlag {
  const char* name;
  long min;  ///< N must be a whole decimal (optional leading '-') in
  long max;  ///< [min, max]; nothing wraps silently.
  std::function<void(long)> set;
};

/// The session-pool flags ttp_serve and ttp_router share, parsed in this
/// one place: --port (into `port`; the caller's -1 means stdio mode),
/// --max-conns, --idle-timeout-ms, --read-timeout-ms, --drain-timeout-ms
/// and --max-frame-bytes (into `server`).
std::vector<LongFlag> server_flags(int& port, ServerConfig& server);

/// Parses one argument against `flags`. Returns false with `error` set on
/// a bad value (naming the flag and its accepted range) or on an argument
/// that no flag names ("unknown argument").
bool parse_long_flag(const std::string& arg, const std::vector<LongFlag>& flags,
                     std::string& error);

/// Bidirectional streambuf over a connected socket with the hardened I/O
/// the naive version lacked: poll-based read deadlines (idle between
/// commands, stricter whole-frame budget inside one — a slowloris client
/// trickling bytes cannot pin the thread past read_timeout_ms), EINTR
/// retry on read/write/poll, bounded writes (poll POLLOUT, so a client
/// that stops reading cannot wedge a reply forever), and every syscall
/// routed through a FaultInjector so tests and TTP_FAULT can make the
/// socket hostile on demand. Implements SessionControl: serve_session
/// tells it where the protocol stands, it tells serve_session when the
/// server is draining.
class FdStreamBuf final : public std::streambuf, public SessionControl {
 public:
  /// Why reading stopped, for the transport's close-out line.
  enum class Event { kNone, kClientEof, kTimedOut, kDrain, kError };

  struct Options {
    int idle_timeout_ms = 0;   ///< 0 = no deadline between commands.
    int read_timeout_ms = 0;   ///< 0 = no whole-frame deadline.
    int write_timeout_ms = 0;  ///< 0 = no per-flush deadline.
    /// When set, reads at a command boundary abort once *drain is true.
    const std::atomic<bool>* drain = nullptr;
    FaultPlan faults{};  ///< Defaults to no injected faults.
  };

  explicit FdStreamBuf(int fd, Options opts);
  explicit FdStreamBuf(int fd) : FdStreamBuf(fd, Options{}) {}

  Event event() const noexcept { return event_; }

  /// Re-arms the read deadline `ms` from now (0 or negative = none).
  /// Client-side users (svc::WireClient) hand in a per-call budget here;
  /// the server side arms deadlines via on_boundary()/on_frame() instead.
  void arm_deadline_ms(int ms) noexcept;

  // SessionControl: the wire loop reports protocol position.
  void on_boundary() override;
  void on_frame() override;
  bool should_end() override;
  bool transport_aborted() override {
    return event_ == Event::kTimedOut || event_ == Event::kError;
  }
  std::int64_t command_start_ns() override { return command_ns_; }

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool draining() const noexcept;
  /// Request bytes already buffered or queued in the kernel: a drain must
  /// serve those before saying BYE, or a fully-sent command would be
  /// silently dropped by the shutdown race.
  bool pending_readable() const noexcept;
  /// Milliseconds left on the current deadline; -1 = no deadline.
  int remaining_ms() const noexcept;

  int fd_;
  Options opts_;
  FaultInjector inject_;
  Event event_ = Event::kNone;
  bool at_boundary_ = true;
  std::int64_t deadline_ns_ = 0;  ///< 0 = no deadline armed.
  /// The poll wake that brought the current command's first bytes, or the
  /// command boundary when they were already buffered; 0 while idle.
  std::int64_t command_ns_ = 0;
  char rbuf_[4096];
  char wbuf_[4096];
};

/// The supervised session pool. One Server owns the listener and every
/// session thread; all sessions share the one CommandHandler, which must
/// outlive the Server.
class Server {
 public:
  Server(CommandHandler& handler, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. False (with `error` set) on socket/bind failure.
  bool listen(std::string& error);

  /// The actual bound port (resolves cfg.port == 0 after listen()).
  int port() const noexcept { return port_; }

  /// Accept loop; blocks until drain completes. Returns the process exit
  /// code (0 on a clean drain, 1 if listen() was never called).
  int run();

  /// Flips the drain flag. Async-signal-safe (a relaxed atomic store) —
  /// this is what the SIGTERM/SIGINT handlers call. Idempotent.
  void begin_drain() noexcept;
  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Sessions currently registered (live + finished-but-unreaped).
  std::size_t active_sessions() const;
  /// High-water mark of the registry, taken after each reap: bounded by
  /// max_conns regardless of how many connections ever arrived.
  std::size_t peak_sessions() const;

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void run_session(Session& session);
  /// Joins finished sessions; returns the number still live.
  std::size_t reap_locked();
  std::size_t reap();
  /// The end-of-run drain sequence described in the header comment.
  void drain();

  CommandHandler& handler_;
  ServerConfig cfg_;
  int listener_ = -1;
  int port_ = -1;
  std::atomic<bool> draining_{false};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t peak_sessions_ = 0;

  obs::Counter& accepted_;
  obs::Counter& shed_;
  obs::Counter& timed_out_;
  obs::Counter& drained_;
  obs::Counter& errored_;
  obs::Gauge& active_gauge_;
};

}  // namespace ttp::svc
