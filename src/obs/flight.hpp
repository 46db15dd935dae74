// The request timeline and the flight recorder: a lock-free fixed-size
// ring of the most recent timelines, always on at near-zero cost.
//
// A timeline is a start stamp plus one nanosecond duration per stage over
// one fixed stage list. Each stage ends where the next begins, so the
// stages partition the request and e2e is their sum. The one stage-name
// table below drives everything that reads a timeline: the ring packing,
// the daemon's `TRACE <id>` reply, the slow-request JSONL line, and the
// ttp_svc_latency_seconds{stage=...} summaries (StageSketches) of both
// ttp_serve and ttp_router. docs/observability.md says where each stage
// begins and ends.
//
// Concurrency: a writer takes a ring index with one fetch_add, claims the
// slot's seqlock with a CAS from even to odd (odd = write in progress),
// and publishes the payload word by word through relaxed atomics. A writer
// that finds its slot held by a lapping writer, or already holding a newer
// lap's record, drops its record and counts the drop, so two writers never
// interleave their stores. Readers copy the words and re-check the
// sequence, skipping slots mid-write. No mutex anywhere, and every access
// is an atomic op, so TSan stays quiet.
//
// Layering: obs depends on nothing else in the repo, so outcome, status and
// plan are opaque uint8 codes here; the serving layer owns their meaning.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/quantiles.hpp"

namespace ttp::obs {

/// The timeline's stages, in the order a request crosses them. ttp_serve's
/// wire requests cross all but upstream; ttp_router's cross read, parse,
/// admit, upstream and write.
enum class Stage : std::uint8_t {
  kRead,
  kParse,
  kAdmit,
  kQueue,
  kBatch,
  kSolve,
  kRespond,
  kUpstream,
  kFormat,
  kWrite,
};
inline constexpr std::size_t kStageCount = 10;

/// The one stage-name table: `<name>_us` in TRACE and the slow log,
/// `stage="<name>"` in METRICS; e2e, their sum, prints last.
inline constexpr std::array<std::string_view, kStageCount> kStageNames = {
    "read",  "parse",   "admit",    "queue",  "batch",
    "solve", "respond", "upstream", "format", "write"};
inline constexpr std::string_view kE2eName = "e2e";

/// A set of stages: bit s stands for Stage s.
using StageSet = std::uint16_t;

constexpr StageSet stage_bit(Stage s) noexcept {
  return static_cast<StageSet>(1u << static_cast<unsigned>(s));
}
constexpr StageSet stage_bit(std::size_t s) noexcept {
  return static_cast<StageSet>(1u << s);
}

/// The stages each daemon records.
inline constexpr StageSet kServeStages = static_cast<StageSet>(
    ((1u << kStageCount) - 1) & ~stage_bit(Stage::kUpstream));
inline constexpr StageSet kRouterStages = static_cast<StageSet>(
    stage_bit(Stage::kRead) | stage_bit(Stage::kParse) |
    stage_bit(Stage::kAdmit) | stage_bit(Stage::kUpstream) |
    stage_bit(Stage::kWrite));

/// One request's timeline plus what identifies it. Stamps are steady-clock
/// nanoseconds (steady_now_ns()).
struct FlightRecord {
  std::uint64_t trace = 0;   ///< Request trace ID (never 0 once admitted).
  std::uint64_t leader = 0;  ///< Leader's trace when this request joined
                             ///< an in-flight solve; 0 when it led.
  std::uint64_t key_hi = 0;  ///< Canonical content key.
  std::uint64_t key_lo = 0;
  std::int64_t start_ns = 0;  ///< The timeline opened here.
  std::array<std::uint64_t, kStageCount> stage_ns{};  ///< By Stage.
  StageSet crossed = 0;         ///< The stages this request crossed.
  std::uint16_t k = 0;          ///< Universe size.
  std::uint16_t actions = 0;    ///< Action count.
  std::uint8_t outcome = 0;     ///< svc::CacheOutcome code.
  std::uint8_t status = 0;      ///< svc::Status code.
  std::uint8_t plan = 0;        ///< svc::Plan code.
  std::uint32_t batch = 0;      ///< Instances in the solving batch (0 = none).
  std::uint32_t batch_seq = 0;  ///< Which drain batch solved it (0 = none).

  /// Ends stage `s` at `end_ns`; it began where the last marked stage
  /// ended (or at start_ns). An earlier stamp — a follower that joined a
  /// solve whose window opened before it arrived — clamps the stage to
  /// zero, so the stages always partition e2e.
  void mark(Stage s, std::int64_t end_ns) noexcept;
  /// End to end: the sum of the stages.
  std::uint64_t e2e_ns() const noexcept;
};

/// "12.345": nanoseconds printed as microseconds, to the nanosecond.
std::string format_us(std::uint64_t ns);

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two, minimum 8.
  explicit FlightRecorder(std::size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Lock-free, wait-free publish; overwrites the oldest record when full,
  /// or drops this one (counted in dropped()) when a lapping writer holds
  /// its slot.
  void record(const FlightRecord& rec) noexcept;

  /// Most recent consistent record with this trace ID, if still in the ring.
  std::optional<FlightRecord> find(std::uint64_t trace) const noexcept;

  /// All consistent records, oldest first. Slots mid-write are skipped.
  std::vector<FlightRecord> snapshot() const;

  std::size_t capacity() const noexcept { return mask_ + 1; }
  /// Total records ever offered (>= capacity means the ring has wrapped).
  std::uint64_t total_recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  /// Records given up because a lapping writer held their slot.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kWords = kStageCount + 8;  ///< Per slot.

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< Odd while a write is in flight.
    std::atomic<std::uint64_t> words[kWords]{};
  };

  bool read_slot(const Slot& slot, FlightRecord& out) const noexcept;

  std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Per-stage latency sketches (nanoseconds) over one daemon's stage set,
/// plus e2e. Only the stages in the set get a sketch.
class StageSketches {
 public:
  explicit StageSketches(StageSet stages);

  /// Records each stage of `rec` that is in the set and that the request
  /// crossed, then its e2e.
  void record(const FlightRecord& rec) noexcept;

  /// One stage's sketch, merged; empty for a stage outside the set.
  QuantileSnapshot snapshot(Stage s) const;

  /// The Prometheus summary family ttp_svc_latency_seconds: one
  /// stage="<name>" label per stage in the set, then stage="e2e".
  void write_prometheus(std::ostream& os) const;

 private:
  std::array<std::unique_ptr<ShardedQuantiles>, kStageCount> stage_;
  ShardedQuantiles e2e_;
};

/// Steady-clock nanoseconds since an arbitrary fixed epoch — the shared
/// timebase for FlightRecord stamps across threads.
std::int64_t steady_now_ns() noexcept;

}  // namespace ttp::obs
