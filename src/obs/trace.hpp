// Structured tracing for the solvers and machine simulators.
//
// A Span is an RAII scope that records BOTH clocks this project cares
// about: wall-clock nanoseconds (what the host paid) and the simulated
// step-counter delta of the enclosing machine/solver (what the paper's cost
// model charges). Spans nest per thread, carry key/value attributes, and
// are collected by the process-global Tracer, which exports them as a
// human-readable tree, JSON Lines, or Chrome trace_event JSON that opens
// directly in chrome://tracing or https://ui.perfetto.dev.
//
// Cost discipline:
//  * compile time — defining TTP_OBS_DISABLED turns every TTP_TRACE_* /
//    TTP_METRIC_* macro into a no-op (spans become NullSpan, a stateless
//    empty struct);
//  * run time — the default mode is off; every macro checks one relaxed
//    atomic before doing anything else, and a disabled tracer performs no
//    allocation whatsoever (tests/test_obs.cpp pins this down).
//
// Control is environment-driven so every solver, example, and bench gains
// observability with no per-call-site flags:
//
//   TTP_TRACE=off             (default) nothing recorded
//   TTP_TRACE=summary         per-span-name aggregates + metrics on stderr
//                             at exit
//   TTP_TRACE=spans           full span tree + metrics on stderr at exit
//   TTP_TRACE=chrome:<path>   Chrome trace_event JSON written to <path>
//   TTP_TRACE=jsonl:<path>    one JSON object per span written to <path>
//
// Layering: obs depends on nothing in this repository (the step-counter
// hookup is duck-typed), so even ttp_util can link against it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ttp::obs {

enum class TraceMode { kOff = 0, kSummary, kSpans, kChrome, kJsonl };

namespace detail {
/// The process-wide trace mode, readable without constructing the Tracer.
/// kUninit means TTP_TRACE has not been consulted yet; the Tracer's
/// constructor and configure() keep this in sync with the active mode so
/// the disabled fast path is one relaxed load of a constant-initialized
/// atomic — no function call, no static-init guard.
inline constexpr int kTraceModeUninit = -1;
inline constinit std::atomic<int> g_trace_mode{kTraceModeUninit};
/// Cold path: constructs the Tracer (which reads TTP_TRACE) and reports
/// whether tracing came up enabled. Defined in trace.cpp.
bool init_trace_mode() noexcept;
}  // namespace detail

/// True iff tracing is on. The off case — the only one benchmarks care
/// about — costs a single relaxed atomic load and a predictable branch.
inline bool trace_enabled() noexcept {
  const int m = detail::g_trace_mode.load(std::memory_order_relaxed);
  if (m == static_cast<int>(TraceMode::kOff)) return false;
  if (m != detail::kTraceModeUninit) return true;
  return detail::init_trace_mode();
}

struct TraceConfig {
  TraceMode mode = TraceMode::kOff;
  std::string path;  ///< output file for kChrome / kJsonl

  /// Parses a TTP_TRACE value ("off", "summary", "spans", "chrome:<path>",
  /// "jsonl:<path>"). Throws std::invalid_argument for anything else,
  /// including a chrome:/jsonl: with an empty path.
  static TraceConfig parse(std::string_view value);
  /// Reads TTP_TRACE; an unset/empty variable means off, an invalid value
  /// warns once on stderr and falls back to off (never throws).
  static TraceConfig from_env() noexcept;
};

// --- request-scoped trace IDs ----------------------------------------------
//
// A trace ID names one request's journey across threads: the serving layer
// mints one per admitted request (next_trace_id), binds it on whichever
// thread is currently working for that request (TraceBinding), and every
// span begun while a binding is active carries the ID. One ID therefore
// stitches wire -> scheduler -> batch -> kernel spans back together even
// though they run on different threads.

namespace detail {
inline thread_local std::uint64_t t_trace = 0;
}  // namespace detail

/// Never returns 0. IDs are process-unique and well-mixed (splitmix64 over
/// a global counter), so prefixes of the hex spelling already distinguish
/// requests in logs.
std::uint64_t next_trace_id() noexcept;

/// The trace ID bound to this thread (0 = none).
inline std::uint64_t current_trace() noexcept { return detail::t_trace; }

/// 16 lowercase hex chars — the wire/log spelling of a trace ID.
std::string trace_hex(std::uint64_t trace);
/// Parses trace_hex output (with or without a 0x prefix); 0 on garbage.
std::uint64_t trace_from_hex(std::string_view s) noexcept;

/// RAII scope: spans begun on this thread while alive carry `trace`.
/// Nest freely; the previous binding is restored on destruction.
class TraceBinding {
 public:
  explicit TraceBinding(std::uint64_t trace) noexcept
      : prev_(detail::t_trace) {
    detail::t_trace = trace;
  }
  ~TraceBinding() { detail::t_trace = prev_; }
  TraceBinding(const TraceBinding&) = delete;
  TraceBinding& operator=(const TraceBinding&) = delete;

 private:
  std::uint64_t prev_;
};

/// One finished (or still-open) span. Times are nanoseconds relative to the
/// tracer's epoch; step snapshots are the watched counters at entry/exit.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for roots
  std::uint64_t trace = 0;   ///< Request trace ID bound at begin (0 = none)
  int depth = 0;
  int tid = 0;  ///< small dense thread index, not the OS id
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool has_steps = false;
  bool open = true;
  std::uint64_t begin_parallel = 0, begin_routed = 0, begin_ops = 0;
  std::uint64_t end_parallel = 0, end_routed = 0, end_ops = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  std::int64_t wall_ns() const noexcept { return end_ns - start_ns; }
  std::uint64_t parallel_delta() const noexcept {
    return end_parallel - begin_parallel;
  }
  std::uint64_t routed_delta() const noexcept {
    return end_routed - begin_routed;
  }
  std::uint64_t ops_delta() const noexcept { return end_ops - begin_ops; }
};

/// Collects spans and metrics for the whole process. Configured once from
/// the environment on first use; reconfigurable at runtime (tests do this).
/// All members are thread-safe; the enabled() fast path is one relaxed
/// atomic load.
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const noexcept { return trace_enabled(); }
  TraceMode mode() const noexcept {
    // The instance exists, so the mode has been initialized (>= 0).
    return static_cast<TraceMode>(
        detail::g_trace_mode.load(std::memory_order_relaxed));
  }

  /// Swaps the configuration and clears all recorded spans and metrics.
  /// Spans still open across a configure() end harmlessly into the void.
  void configure(const TraceConfig& cfg);

  MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Copy of everything recorded so far (finished spans have open=false).
  std::vector<SpanRecord> snapshot() const;

  /// Spans carrying this trace ID, in recording order — the raw material
  /// for a slow-request dump or a TRACE replay.
  std::vector<SpanRecord> snapshot_trace(std::uint64_t trace) const;

  /// Writes the exporters for the current mode (tree/summary to stderr,
  /// chrome/jsonl to the configured file). Called automatically at process
  /// exit for whatever is buffered; idempotent until new spans arrive.
  void flush();

  /// Nanoseconds since the tracer's epoch (steady clock).
  std::int64_t now_ns() const;

  // --- span recording (used by Span; not part of the public surface) -----
  struct StepProbe {
    const std::uint64_t* parallel = nullptr;
    const std::uint64_t* routed = nullptr;
    const std::uint64_t* ops = nullptr;
  };
  std::uint64_t begin_span(std::string_view name, const StepProbe& probe);
  void end_span(std::uint64_t token, const StepProbe& probe);
  void span_attr(std::uint64_t token, std::string_view key,
                 std::string_view value);

  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer();

  // Span tokens pack (generation, index) so spans that outlive a
  // configure() reset cannot touch the new buffer.
  static constexpr int kIndexBits = 40;
  std::uint64_t make_token(std::uint64_t index) const;
  SpanRecord* resolve_token(std::uint64_t token);  // mu_ must be held
  int thread_index();

  static constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

  mutable std::mutex mu_;
  std::string path_;
  std::vector<SpanRecord> spans_;
  MetricsRegistry metrics_;
  std::uint64_t generation_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  int next_tid_ = 0;
  bool dirty_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

/// The process-global tracer.
inline Tracer& tracer() { return Tracer::instance(); }

/// RAII span handle. Constructing while tracing is off stores one null
/// pointer and does nothing else — no allocation, no clock read, and no
/// touch of the Tracer singleton.
class Span {
 public:
  explicit Span(std::string_view name) {
    if (trace_enabled()) start(tracer(), name, Tracer::StepProbe{});
  }
  /// Watches a raw instruction counter (e.g. bvm::Machine::instr_counter());
  /// the delta lands in parallel_delta().
  Span(std::string_view name, const std::uint64_t& instr_counter) {
    if (trace_enabled()) {
      start(tracer(), name,
            Tracer::StepProbe{&instr_counter, nullptr, nullptr});
    }
  }
  /// Watches anything shaped like util::StepCounter (duck-typed so obs does
  /// not depend on util).
  template <typename SC>
    requires requires(const SC& s) {
      s.parallel_steps;
      s.route_steps;
      s.total_ops;
    }
  Span(std::string_view name, const SC& sc) {
    if (trace_enabled()) {
      start(tracer(), name,
            Tracer::StepProbe{&sc.parallel_steps, &sc.route_steps,
                              &sc.total_ops});
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// Ends the span early (idempotent; the destructor then does nothing).
  void finish() {
    if (t_ == nullptr) return;
    t_->end_span(token_, probe_);
    t_ = nullptr;
  }

  void attr(std::string_view key, std::string_view value) {
    if (t_ != nullptr) t_->span_attr(token_, key, value);
  }
  void attr(std::string_view key, const char* value) {
    if (t_ != nullptr) t_->span_attr(token_, key, value);
  }
  void attr(std::string_view key, std::int64_t value) {
    if (t_ != nullptr) t_->span_attr(token_, key, std::to_string(value));
  }
  void attr(std::string_view key, std::uint64_t value) {
    if (t_ != nullptr) t_->span_attr(token_, key, std::to_string(value));
  }
  void attr(std::string_view key, int value) {
    attr(key, static_cast<std::int64_t>(value));
  }
  void attr(std::string_view key, unsigned value) {
    attr(key, static_cast<std::uint64_t>(value));
  }
  void attr(std::string_view key, double value) {
    if (t_ != nullptr) t_->span_attr(token_, key, std::to_string(value));
  }

 private:
  void start(Tracer& t, std::string_view name, Tracer::StepProbe probe) {
    t_ = &t;
    probe_ = probe;
    token_ = t.begin_span(name, probe_);
  }

  Tracer* t_ = nullptr;
  std::uint64_t token_ = 0;
  Tracer::StepProbe probe_{};
};

/// Stand-in for Span when TTP_OBS_DISABLED compiles tracing out. Accepts
/// (and ignores) every attr() the real Span does.
struct NullSpan {
  template <typename... A>
  void attr(A&&...) const noexcept {}
  void finish() const noexcept {}
};

}  // namespace ttp::obs

// --- call-site macros -------------------------------------------------------
//
// TTP_TRACE_SPAN(var, "name"[, counter]) declares an RAII span named `var`
// in the current scope; `counter` may be a util::StepCounter (or anything
// with its three fields) or a uint64 instruction counter. Attributes go
// through `var.attr(key, value)`.
//
// TTP_METRIC_ADD / TTP_METRIC_HIST / TTP_METRIC_GAUGE update the global
// registry only when tracing is enabled.

#ifndef TTP_OBS_DISABLED

#define TTP_TRACE_SPAN(var, ...) ::ttp::obs::Span var(__VA_ARGS__)

#define TTP_METRIC_ADD(name, v)                           \
  do {                                                    \
    if (::ttp::obs::trace_enabled()) {                    \
      ::ttp::obs::tracer().metrics().counter(name).add(v); \
    }                                                     \
  } while (0)

#define TTP_METRIC_HIST(name, v)                                \
  do {                                                          \
    if (::ttp::obs::trace_enabled()) {                          \
      ::ttp::obs::tracer().metrics().histogram(name).record(v); \
    }                                                           \
  } while (0)

#define TTP_METRIC_GAUGE(name, v)                          \
  do {                                                     \
    if (::ttp::obs::trace_enabled()) {                     \
      ::ttp::obs::tracer().metrics().gauge(name).set(v);   \
    }                                                      \
  } while (0)

#else  // TTP_OBS_DISABLED

#define TTP_TRACE_SPAN(var, ...) \
  [[maybe_unused]] const ::ttp::obs::NullSpan var {}
#define TTP_METRIC_ADD(name, v) \
  do {                          \
  } while (0)
#define TTP_METRIC_HIST(name, v) \
  do {                           \
  } while (0)
#define TTP_METRIC_GAUGE(name, v) \
  do {                            \
  } while (0)

#endif  // TTP_OBS_DISABLED
