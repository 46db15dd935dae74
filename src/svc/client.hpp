// Reusable framed wire client for the ttp_serve protocol.
//
// Everything that talks to a ttp_serve (or ttp_router) socket — the cluster
// router's upstream pool, the socket tests, future CLI tooling — used to
// grow its own ad-hoc connect/poll/recv loop. WireClient is the one shared
// implementation: a connect with a real deadline (non-blocking connect +
// poll + SO_ERROR, EINTR-safe), then line-framed request/reply over the
// same hardened FdStreamBuf the server side uses, so reads and writes are
// poll-sliced, deadline-bounded, EINTR-immune, and fault-injectable
// (FaultPlan) without any duplicated syscall plumbing.
//
// Deadlines are per call: read_line(ms)/read_until(term, ms) re-arm the
// stream deadline each time, so callers with an end-to-end budget can hand
// in the remaining slice per read. On EOF/timeout the convenience overloads
// return what arrived.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "svc/faultnet.hpp"
#include "svc/server.hpp"

namespace ttp::svc {

class WireClient {
 public:
  struct Options {
    int connect_timeout_ms = 5000;  ///< Budget for the TCP handshake.
    int io_timeout_ms = 5000;       ///< Default per-call read/write budget.
    FaultPlan faults{};             ///< Client-side fault injection (tests).
  };

  /// Connects to host:port; check connected() (the constructor never
  /// throws — error() carries the failure).
  WireClient(const std::string& host, int port, Options opts);
  WireClient(const std::string& host, int port)
      : WireClient(host, port, Options{}) {}
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool connected() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  const std::string& error() const noexcept { return error_; }

  /// Writes (and flushes) the whole payload under the write deadline.
  bool send(std::string_view text);

  /// One protocol line into `line` ('\r''\n' stripped); false on
  /// EOF/timeout/error — `line` still holds whatever partial text arrived.
  /// timeout_ms < 0 uses Options::io_timeout_ms.
  bool read_line(std::string& line, int timeout_ms = -1);
  /// Convenience (test-harness shape): the line, or the partial text / ""
  /// when the read failed.
  std::string read_line(int timeout_ms = -1);

  /// Lines up to an exactly-matching `terminator` line (excluded). True
  /// only when the terminator actually arrived. Each line gets a fresh
  /// per-call deadline slice.
  bool read_until(const std::string& terminator,
                  std::vector<std::string>& lines, int timeout_ms = -1);
  std::vector<std::string> read_until(const std::string& terminator,
                                      int timeout_ms = -1);
  /// The same lines, terminator included, appended to `text` with '\n'
  /// after each: a reply relayed in one buffer, not one string per line.
  bool read_until(const std::string& terminator, std::string& text,
                  int timeout_ms = -1);

  /// True when a read would not block: buffered bytes, readable fd, or a
  /// peer EOF/reset waiting to be observed. Slices at most `timeout_ms`.
  bool poll_readable(int timeout_ms);

  void close() noexcept;

 private:
  int fd_ = -1;
  Options opts_;
  std::string error_;
  std::unique_ptr<FdStreamBuf> buf_;
  std::unique_ptr<std::iostream> io_;
};

}  // namespace ttp::svc
