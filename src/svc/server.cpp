#include "svc/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"

namespace ttp::svc {

std::vector<LongFlag> server_flags(int& port, ServerConfig& server) {
  // The setters outlive this call, so they hold the targets' addresses.
  int* p = &port;
  ServerConfig* s = &server;
  return {
      {"--port", 0, 65535, [p](long v) { *p = static_cast<int>(v); }},
      {"--max-conns", 1, 65536,
       [s](long v) { s->max_conns = static_cast<std::size_t>(v); }},
      {"--idle-timeout-ms", 0, 1'000'000'000L,
       [s](long v) { s->idle_timeout_ms = static_cast<int>(v); }},
      {"--read-timeout-ms", 0, 1'000'000'000L,
       [s](long v) { s->read_timeout_ms = static_cast<int>(v); }},
      {"--drain-timeout-ms", 1, 1'000'000'000L,
       [s](long v) { s->drain_timeout_ms = static_cast<int>(v); }},
      {"--max-frame-bytes", 1024, 1L << 30,
       [s](long v) { s->max_frame_bytes = static_cast<std::size_t>(v); }},
  };
}

bool parse_long_flag(const std::string& arg, const std::vector<LongFlag>& flags,
                     std::string& error) {
  for (const LongFlag& f : flags) {
    const std::string prefix = std::string(f.name) + "=";
    if (arg.rfind(prefix, 0) != 0) continue;
    const std::string value = arg.substr(prefix.size());
    long v = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc{} || ptr != end || v < f.min || v > f.max) {
      error = "bad value for " + std::string(f.name) + ": '" + value +
              "' (accepted range: " + std::to_string(f.min) + ".." +
              std::to_string(f.max) + ")";
      return false;
    }
    f.set(v);
    return true;
  }
  error = "unknown argument '" + arg + "'";
  return false;
}

bool parse_serve_args(int argc, const char* const* argv, ServeArgs& args,
                      std::string& error) {
  // Each count gets an explicit range: a negative or zero value must be a
  // startup error, not a silent wrap into a huge unsigned config field
  // (--cache-mb=-1 used to become a ~2^64-byte cache capacity).
  ServiceConfig& c = args.cfg;
  std::vector<LongFlag> flags = server_flags(args.port, args.server);
  flags.insert(
      flags.end(),
      {
          {"--workers", 1, 4096,
           [&](long v) { c.workers = static_cast<std::size_t>(v); }},
          {"--cache-mb", 1, 1 << 20,
           [&](long v) {
             c.cache.capacity_bytes = static_cast<std::size_t>(v) << 20;
           }},
          {"--shards", 1, 1024,
           [&](long v) { c.cache.shards = static_cast<std::size_t>(v); }},
          {"--ttl-ms", 0, 1'000'000'000L,
           [&](long v) { c.cache.ttl = std::chrono::milliseconds(v); }},
          {"--max-k", 1, 32,
           [&](long v) { c.scheduler.max_k = static_cast<int>(v); }},
          {"--max-actions", 1, 1'000'000,
           [&](long v) { c.scheduler.max_actions = static_cast<int>(v); }},
          {"--max-sparse-k", 0, 24,
           [&](long v) { c.scheduler.max_sparse_k = static_cast<int>(v); }},
          {"--sparse-budget-mb", 1, 1 << 20,
           [&](long v) {
             c.scheduler.sparse_budget_bytes = static_cast<std::size_t>(v)
                                               << 20;
           }},
          {"--max-queue", 1, 10'000'000,
           [&](long v) {
             c.scheduler.max_queue = static_cast<std::size_t>(v);
           }},
          {"--max-batch", 1, 65536,
           [&](long v) {
             c.scheduler.max_batch = static_cast<std::size_t>(v);
           }},
          {"--batch-delay-us", 0, 10'000'000,
           [&](long v) {
             c.scheduler.batch_delay = std::chrono::microseconds(v);
           }},
          {"--slow-ms", 0, 1'000'000'000L,
           [&](long v) { c.telemetry.slow_ms = static_cast<int>(v); }},
          {"--flight-cap", 8, 1 << 24,
           [&](long v) {
             c.telemetry.flight_capacity = static_cast<std::size_t>(v);
           }},
          {"--store-max-mb", 1, 1 << 20,
           [&](long v) {
             c.store.max_bytes = static_cast<std::uint64_t>(v) << 20;
           }},
          {"--store-ttl-s", 0, 1'000'000'000L,
           [&](long v) {
             c.store.ttl_seconds = static_cast<std::uint64_t>(v);
           }},
      });
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto is = [&](const char* flag) {
      return arg.rfind(std::string(flag) + "=", 0) == 0;
    };
    if (arg == "--help" || arg == "-h") {
      args.help = true;
      return true;
    } else if (is("--slow-log")) {
      c.telemetry.slow_log = arg.substr(std::strlen("--slow-log="));
    } else if (is("--store-dir")) {
      c.store.dir = arg.substr(std::strlen("--store-dir="));
      if (c.store.dir.empty()) {
        error = "bad value for --store-dir: empty path";
        return false;
      }
    } else if (is("--store-sync")) {
      const std::string value = arg.substr(std::strlen("--store-sync="));
      if (!store::parse_sync_mode(value, c.store.sync)) {
        error = "bad value for --store-sync: '" + value +
                "' (accepted: none, batch, always)";
        return false;
      }
    } else if (!parse_long_flag(arg, flags, error)) {
      return false;
    }
  }
  args.server.port = args.port;
  return true;
}

namespace {

/// Poll slice so blocked reads notice drain/deadlines promptly without
/// burning CPU.
constexpr int kPollSliceMs = 100;

/// send() that cannot raise SIGPIPE (the Server also runs inside test
/// binaries that do not ignore it); falls back to write() for non-sockets.
long send_nosignal(int fd, const void* buf, std::size_t n) noexcept {
  const ssize_t sent = ::send(fd, buf, n, MSG_NOSIGNAL);
  if (sent < 0 && errno == ENOTSOCK) {
    return static_cast<long>(::write(fd, buf, n));
  }
  return static_cast<long>(sent);
}

}  // namespace

FdStreamBuf::FdStreamBuf(int fd, Options opts)
    : fd_(fd), opts_(opts), inject_(opts.faults) {
  setg(rbuf_, rbuf_, rbuf_);
  setp(wbuf_, wbuf_ + sizeof(wbuf_));
  on_boundary();
}

bool FdStreamBuf::draining() const noexcept {
  return opts_.drain != nullptr &&
         opts_.drain->load(std::memory_order_relaxed);
}

void FdStreamBuf::on_boundary() {
  at_boundary_ = true;
  const std::int64_t now = obs::steady_now_ns();
  deadline_ns_ = opts_.idle_timeout_ms > 0
                     ? now + static_cast<std::int64_t>(opts_.idle_timeout_ms) *
                                 1'000'000
                     : 0;
  // Idle time between commands never counts toward a request: the next
  // command starts now only if its bytes are already here.
  command_ns_ = gptr() < egptr() ? now : 0;
}

void FdStreamBuf::on_frame() {
  at_boundary_ = false;
  // One deadline for the whole frame, armed at frame entry and *not* reset
  // per byte: a client trickling a SOLVE body one byte per second is evicted
  // at read_timeout_ms, not granted a fresh budget per byte.
  deadline_ns_ = opts_.read_timeout_ms > 0
                     ? obs::steady_now_ns() +
                           static_cast<std::int64_t>(opts_.read_timeout_ms) *
                               1'000'000
                     : 0;
}

void FdStreamBuf::arm_deadline_ms(int ms) noexcept {
  // A client-side per-call budget. at_boundary_ stays false so a draining
  // flag (never set on the client side anyway) cannot cut a read short.
  at_boundary_ = false;
  deadline_ns_ =
      ms > 0 ? obs::steady_now_ns() + static_cast<std::int64_t>(ms) * 1'000'000
             : 0;
}

bool FdStreamBuf::pending_readable() const noexcept {
  if (gptr() < egptr()) return true;  // bytes already decoded and buffered
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, 0) > 0;
}

bool FdStreamBuf::should_end() {
  // A drain ends the session at the next command boundary — but a request
  // that was fully on the wire before the drain began is in flight from
  // the client's point of view and still gets its terminal reply.
  return draining() && !pending_readable();
}

int FdStreamBuf::remaining_ms() const noexcept {
  if (deadline_ns_ == 0) return -1;
  const std::int64_t left = deadline_ns_ - obs::steady_now_ns();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<std::int64_t>(left / 1'000'000 + 1,
                                                 1'000'000'000));
}

std::streambuf::int_type FdStreamBuf::underflow() {
  for (;;) {
    // Between commands a draining server ends the session here — unless
    // request bytes are already queued, which means a command crossed the
    // drain on the wire and must still be served. Inside a frame the read
    // proceeds (under its deadline) so an in-flight SOLVE body is not torn
    // by the drain itself.
    if (at_boundary_ && draining() && !pending_readable()) {
      event_ = Event::kDrain;
      return traits_type::eof();
    }
    const int rem = remaining_ms();
    if (rem == 0) {
      event_ = Event::kTimedOut;
      return traits_type::eof();
    }
    int wait = kPollSliceMs;
    if (rem > 0 && rem < wait) wait = rem;
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait);
    if (pr < 0) {
      if (errno == EINTR) continue;
      event_ = Event::kError;
      return traits_type::eof();
    }
    if (pr == 0) continue;  // slice expired; recheck drain and deadline
    if (at_boundary_ && command_ns_ == 0) command_ns_ = obs::steady_now_ns();
    const long n = inject_.read(fd_, rbuf_, sizeof(rbuf_));
    if (n < 0) {
      // EINTR is a retry, never EOF (the original streambuf dropped the
      // session here; fault mode eintr:N now exercises this loop for real).
      // EAGAIN can surface through the SO_RCVTIMEO backstop.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      event_ = Event::kError;
      return traits_type::eof();
    }
    if (n == 0) {
      event_ = Event::kClientEof;
      return traits_type::eof();
    }
    setg(rbuf_, rbuf_, rbuf_ + n);
    return traits_type::to_int_type(rbuf_[0]);
  }
}

std::streambuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (sync() != 0) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreamBuf::sync() {
  const char* p = pbase();
  const std::int64_t write_deadline_ns =
      opts_.write_timeout_ms > 0
          ? obs::steady_now_ns() +
                static_cast<std::int64_t>(opts_.write_timeout_ms) * 1'000'000
          : 0;
  while (p < pptr()) {
    if (write_deadline_ns != 0 && obs::steady_now_ns() >= write_deadline_ns) {
      event_ = Event::kTimedOut;  // client stopped reading; don't wedge
      return -1;
    }
    pollfd pfd{fd_, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, kPollSliceMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (pr == 0) continue;
    const long n = inject_.write(fd_, p, static_cast<std::size_t>(pptr() - p));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return -1;
    }
    if (n == 0) return -1;
    p += n;
  }
  setp(wbuf_, wbuf_ + sizeof(wbuf_));
  return 0;
}

Server::Server(CommandHandler& handler, ServerConfig cfg)
    : handler_(handler),
      cfg_(cfg),
      accepted_(handler.metrics().counter("svc.server.accepted")),
      shed_(handler.metrics().counter("svc.server.shed")),
      timed_out_(handler.metrics().counter("svc.server.timed_out")),
      drained_(handler.metrics().counter("svc.server.drained")),
      errored_(handler.metrics().counter("svc.server.session_errors")),
      active_gauge_(handler.metrics().gauge("svc.server.active")) {
  cfg_.max_conns = std::max<std::size_t>(cfg_.max_conns, 1);
}

Server::~Server() {
  begin_drain();
  if (listener_ >= 0) {
    ::close(listener_);
    listener_ = -1;
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sessions_) {
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
      if (s->thread.joinable()) threads.push_back(std::move(s->thread));
    }
  }
  for (std::thread& t : threads) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : sessions_) {
    if (s->fd >= 0) ::close(s->fd);
  }
  sessions_.clear();
}

bool Server::listen(std::string& error) {
  listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    error = std::string("bind: ") + std::strerror(errno);
    ::close(listener_);
    listener_ = -1;
    return false;
  }
  if (::listen(listener_, 128) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    ::close(listener_);
    listener_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listener_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  return true;
}

void Server::begin_drain() noexcept {
  draining_.store(true, std::memory_order_relaxed);
  handler_.drain_begin();
}

std::size_t Server::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::size_t Server::peak_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_sessions_;
}

std::size_t Server::reap_locked() {
  // Join and erase in one pass, reading `done` exactly once per session: a
  // session that flips `done` between a separate join sweep and the erase
  // sweep would be destroyed with its thread still joinable (= terminate).
  auto it = sessions_.begin();
  while (it != sessions_.end()) {
    Session& s = **it;
    if (s.done.load(std::memory_order_acquire)) {
      if (s.thread.joinable()) s.thread.join();
      if (s.fd >= 0) {
        ::close(s.fd);
        s.fd = -1;
      }
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  active_gauge_.set(static_cast<double>(sessions_.size()));
  return sessions_.size();
}

std::size_t Server::reap() {
  std::lock_guard<std::mutex> lock(mu_);
  return reap_locked();
}

void Server::run_session(Session& session) {
  FdStreamBuf::Options opts;
  opts.idle_timeout_ms = cfg_.idle_timeout_ms;
  opts.read_timeout_ms = cfg_.read_timeout_ms;
  // A reply to a client that stopped reading is bounded by the same budget
  // as a frame that stopped arriving.
  opts.write_timeout_ms = cfg_.read_timeout_ms;
  opts.drain = &draining_;
  opts.faults = FaultPlan::from_env();
  FdStreamBuf buf(session.fd, opts);
  std::istream in(&buf);
  std::ostream out(&buf);
  SessionOptions session_opts;
  session_opts.max_frame_bytes = cfg_.max_frame_bytes;
  session_opts.control = &buf;
  SessionResult result;
  try {
    result = serve_session(handler_, in, out, session_opts);
  } catch (const std::exception& e) {
    // A handler bug must cost one session, not the whole daemon: an exception
    // escaping into this thread would std::terminate the process and tear
    // down every other connection with it.
    out.clear();
    write_err(out, "internal", std::string("session aborted: ") + e.what());
    errored_.add(1);
    result.end = SessionEnd::kEof;
  }
  if (result.end == SessionEnd::kStopped ||
      (result.end == SessionEnd::kEof &&
       buf.event() == FdStreamBuf::Event::kDrain)) {
    out.clear();
    out << "BYE\n" << std::flush;
    drained_.add(1);
  } else if (result.end == SessionEnd::kEof &&
             buf.event() == FdStreamBuf::Event::kTimedOut) {
    out.clear();
    out << "ERR timeout session deadline exceeded (idle "
        << cfg_.idle_timeout_ms << "ms / frame " << cfg_.read_timeout_ms
        << "ms)\n"
        << std::flush;
    timed_out_.add(1);
  }
  ::shutdown(session.fd, SHUT_RDWR);
  session.done.store(true, std::memory_order_release);
}

int Server::run() {
  if (listener_ < 0) return 1;
  while (!draining()) {
    pollfd pfd{listener_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 50);
    reap();
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    const int conn = ::accept(listener_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (reap_locked() >= cfg_.max_conns) {
      // Accept-then-shed: the client gets a typed verdict instead of a
      // mysterious RST or an unbounded backlog wait.
      shed_.add(1);
      const std::string msg = "ERR overload server at max connections (" +
                              std::to_string(cfg_.max_conns) + ")\n";
      send_nosignal(conn, msg.data(), msg.size());
      ::close(conn);
      continue;
    }
    if (cfg_.read_timeout_ms > 0) {
      // Belt-and-braces alongside the poll deadlines: even a read issued
      // outside the poll loop cannot block past the frame budget.
      timeval tv{};
      tv.tv_sec = cfg_.read_timeout_ms / 1000;
      tv.tv_usec = (cfg_.read_timeout_ms % 1000) * 1000;
      ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    auto session = std::make_unique<Session>();
    session->fd = conn;
    Session* raw = session.get();
    sessions_.push_back(std::move(session));
    peak_sessions_ = std::max(peak_sessions_, sessions_.size());
    accepted_.add(1);
    active_gauge_.set(static_cast<double>(sessions_.size()));
    raw->thread = std::thread(&Server::run_session, this, std::ref(*raw));
  }
  ::close(listener_);
  listener_ = -1;
  drain();
  return 0;
}

void Server::drain() {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto budget = std::chrono::milliseconds(cfg_.drain_timeout_ms);
  const auto soft_deadline = t0 + budget * 3 / 4;
  const auto hard_deadline = t0 + budget;
  // Phase 1 (75% of the budget): natural completion. In-flight SOLVEs run
  // to completion and reply OK; sessions then see the drain flag at their
  // next command boundary, get BYE, and exit.
  while (clock::now() < soft_deadline) {
    if (reap() == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reap() == 0) return;
  // Phase 2: work still pending this deep into the budget is cancelled —
  // the handler resolves every outstanding request terminally (ttp_serve
  // stops the scheduler, so blocked sessions wake and still send a
  // terminal "ERR cancelled" reply; the router stops its prober and
  // closes its idle upstream connections).
  handler_.drain_force();
  while (clock::now() < hard_deadline) {
    if (reap() == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Phase 3: force the stragglers' sockets shut; their reads/writes fail
  // immediately and the threads exit. Join everything before returning so
  // the process can exit 0 without leaking a thread.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sessions_) {
      if (s->fd >= 0 && !s->done.load(std::memory_order_acquire)) {
        ::shutdown(s->fd, SHUT_RDWR);
      }
    }
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sessions_) {
      if (s->thread.joinable()) threads.push_back(std::move(s->thread));
    }
  }
  for (std::thread& t : threads) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : sessions_) {
    if (s->fd >= 0) ::close(s->fd);
  }
  sessions_.clear();
  active_gauge_.set(0.0);
}

}  // namespace ttp::svc
