// Newline-framed text protocol for ttp_serve, factored out of the daemon so
// the stdio loop, the TCP connection handler, ttp_router's sessions and the
// tests all drive the exact same code over plain iostreams.
//
// Request grammar (one command per line; '\r' tolerated before '\n'):
//
//   session  := command*
//   command  := solve | stats | metrics | health | trace | ping | quit
//   solve    := "SOLVE" NL instance-text NL "END" NL
//   stats    := "STATS" NL
//   metrics  := "METRICS" NL
//   health   := "HEALTH" NL
//   trace    := "TRACE" SP trace-id NL        (trace-id: 16 hex chars,
//                                              as reported in solve ok)
//   ping     := "PING" NL
//   quit     := "QUIT" NL
//
// where instance-text is the tt/serialize format (src/tt/serialize.hpp) —
// the wire reuses the library serialization verbatim, including comments
// and its strict numbers: decimal or exponent form with an optional sign,
// never hex, inf or nan, and nothing trailing a token or a line. A frame
// that breaks it gets "ERR bad-request line N: ..." and the session goes on.
//
// Replies:
//
//   solve ok  := "OK cache=" outcome " cost=" float " nodes=" int
//                " trace=" hex16 NL tree-text "END" NL
//                (float: 17 significant digits, as util::append_double
//                writes it)
//   tree-text := "tree" int(root) NL node*          (see tree_to_wire)
//   node      := "node" idx action yes no {state} NL
//   solve err := "ERR " code " " message NL
//   stats     := "STATS" NL metric-lines "END" NL
//   metrics   := "METRICS" NL prometheus-text "END" NL
//   health    := "HEALTH" NL ready|degraded|draining NL key-value-lines
//                "END" NL
//   trace     := "TRACE" NL flight-record-lines "END" NL
//                (or "ERR not-found ..." when the ring no longer holds it)
//   ping      := "PONG" NL
//   quit      := "BYE" NL (handler returns)
//
// Error codes: bad-request (unparseable frame or malformed instance),
// oversize (admission limits or a SOLVE frame past max_frame_bytes),
// overload (queue full), cancelled (shutdown), not-found (TRACE id absent
// from the flight recorder), timeout (session deadline hit; sent by the
// server transport, see svc/server.hpp), upstream (sent by ttp_router when
// every replica for a key is unreachable; see src/cluster/router.hpp),
// internal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "svc/service.hpp"
#include "tt/tree.hpp"

namespace ttp::svc {

/// Transport hooks into the session loop. A transport (the TCP server's
/// FdStreamBuf) implements this to learn where the protocol stands —
/// between commands (idle deadline applies, drain may end the session) or
/// inside a frame (the stricter read deadline applies) — without the wire
/// layer knowing anything about sockets.
class SessionControl {
 public:
  virtual ~SessionControl() = default;
  /// The next read starts a fresh command; transports arm the idle
  /// deadline and may abort the read when the server is draining.
  virtual void on_boundary() {}
  /// Subsequent reads are frame body; transports arm the read deadline
  /// (the whole frame must arrive within it — slowloris protection).
  virtual void on_frame() {}
  /// Checked between commands: true ends the session (graceful drain).
  virtual bool should_end() { return false; }
  /// True when the transport itself cut the stream (deadline hit, socket
  /// error) rather than the client finishing cleanly. Mid-frame EOF then
  /// skips the "ERR bad-request ... not terminated" reply so the
  /// transport's own verdict ("ERR timeout ...") is the one terminal line.
  virtual bool transport_aborted() { return false; }
  /// When the current command's first bytes reached the transport
  /// (obs::steady_now_ns), where a request timeline's read stage starts;
  /// 0 when the transport cannot tell.
  virtual std::int64_t command_start_ns() { return 0; }
};

/// Per-session knobs, defaulted for embedders and tests.
struct SessionOptions {
  /// SOLVE frame body cap in bytes; past it the reply is "ERR oversize"
  /// (sent immediately, the rest of the frame is discarded unbuffered).
  /// 0 = unlimited.
  std::size_t max_frame_bytes = std::size_t{1} << 20;
  SessionControl* control = nullptr;  ///< Optional transport hooks.
};

/// Why serve_session returned — transports decide their close-out line
/// (BYE on drain, ERR timeout on deadline) from this plus their own state.
enum class SessionEnd {
  kEof,      ///< Input ended (client closed, timeout, or drain abort).
  kQuit,     ///< Client sent QUIT; BYE already written.
  kStopped,  ///< SessionControl::should_end() ended it; nothing written.
};

struct SessionResult {
  std::size_t handled = 0;  ///< Commands processed.
  SessionEnd end = SessionEnd::kEof;
};

/// Serializes a tree for the wire: "tree <root>\n" then one
/// "node <idx> <action> <yes> <no> {state}\n" per node (indices as in
/// Tree::nodes(), -1 for absent arcs). An empty tree is "tree -1\n".
/// append_solve_reply writes the same text with the same appenders.
std::string tree_to_wire(const tt::Tree& tree);

/// Parses tree_to_wire output; throws std::invalid_argument on malformed
/// input — including state-set bits outside [0, 32), yes/no arcs that
/// reference nodes outside the tree, and a root outside the node array.
/// Round-trips structurally (used by client-side tests).
tt::Tree tree_from_wire(const std::string& text);

/// A one-line typed error reply: "ERR <code> <message>\n", newlines in the
/// message flattened to spaces so the framing holds.
std::string err_line(std::string_view code, const std::string& message);

/// Writes err_line(code, message), flushed. Shared with the cluster
/// router, which speaks the same reply grammar.
void write_err(std::ostream& out, std::string_view code,
               const std::string& message);

/// Appends a SOLVE's reply: for an ok response the "OK ..." head, its
/// tree text and END, byte for byte what an ostream at precision(17)
/// wrote; else its one-line ERR.
void append_solve_reply(std::string& out, const Response& res);

/// Opens a SOLVE's timeline where its read stage starts: when the transport
/// saw the command's first bytes, or now when it cannot tell (stdio).
obs::FlightRecord open_timeline(const SessionOptions& opts);

/// Reads a SOLVE frame body (the lines after the "SOLVE" command, up to
/// END, each '\n'-terminated with any '\r' stripped) onto the end of
/// `frame`, enforcing opts.max_frame_bytes on the body with the early
/// "ERR oversize" verdict + unbuffered discard-until-END. Returns true when
/// the frame arrived complete and within budget; false when the caller must
/// not process it (the oversize or bad-request reply was already written,
/// or the transport cut the stream and owns the terminal line).
bool read_solve_frame(std::istream& in, std::ostream& out,
                      const SessionOptions& opts, std::string& frame);

/// What a daemon answers the protocol's commands with, and the hooks its
/// TCP session pool (svc/server.hpp) drives. serve_session owns the command
/// loop — framing, CRLF, transport hooks, PING, QUIT and the unknown-command
/// error — and dispatches the rest here: ttp_serve answers from its Service
/// (ServiceCommands below), ttp_router (src/cluster/router.hpp) by
/// forwarding.
class CommandHandler {
 public:
  virtual ~CommandHandler() = default;
  /// SOLVE; the frame body (up to END) is still unread on `in`. `frame`
  /// is the session's buffer, kept across its requests so a warm session
  /// reads each frame and writes each reply without allocating.
  virtual void solve(std::istream& in, std::ostream& out,
                     const SessionOptions& opts, std::string& frame) = 0;
  /// TRACE <arg>.
  virtual void trace(const std::string& arg, std::ostream& out) = 0;
  /// The STATS, METRICS and HEALTH payloads (between the verb and END).
  virtual std::string stats_text() const = 0;
  virtual std::string metrics_text() const = 0;
  virtual std::string health_text() const = 0;
  /// Registry the session pool's counters (svc.server.*) live in.
  virtual obs::MetricsRegistry& metrics() = 0;
  /// Drain announced. Called from Server::begin_drain — which signal
  /// handlers invoke — so implementations MUST be async-signal-safe
  /// (atomic stores only).
  virtual void drain_begin() noexcept {}
  /// Drain deadline approaching: cancel pending work so blocked sessions
  /// wake with terminal replies. Called from the drain thread.
  virtual void drain_force() {}
};

/// ttp_serve's handler: every command against the one shared Service. A
/// drain flips the Service's draining flag and, when forced, stops the
/// scheduler (pending solves resolve kCancelled).
class ServiceCommands final : public CommandHandler {
 public:
  explicit ServiceCommands(Service& svc) : svc_(svc) {}
  void solve(std::istream& in, std::ostream& out, const SessionOptions& opts,
             std::string& frame) override;
  void trace(const std::string& arg, std::ostream& out) override;
  std::string stats_text() const override { return svc_.stats_text(); }
  std::string metrics_text() const override { return svc_.metrics_text(); }
  std::string health_text() const override { return svc_.health_text(); }
  obs::MetricsRegistry& metrics() override { return svc_.metrics(); }
  void drain_begin() noexcept override { svc_.set_draining(true); }
  void drain_force() override { svc_.scheduler().stop(); }

 private:
  Service& svc_;
};

/// Runs one session: reads commands from `in` until EOF, QUIT, or the
/// transport's should_end(), writes replies to `out` (flushed per reply).
/// Protocol errors produce ERR replies, never exceptions.
SessionResult serve_session(CommandHandler& handler, std::istream& in,
                            std::ostream& out, const SessionOptions& opts);

}  // namespace ttp::svc
