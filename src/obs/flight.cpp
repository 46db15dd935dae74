#include "obs/flight.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/prom.hpp"

namespace ttp::obs {

namespace {

// FlightRecord <-> kWords uint64 words: the ids and the start stamp, one
// word per stage, then the small fields packed. Packing by hand (instead of
// memcpy into a byte buffer) keeps every store/load a relaxed atomic word
// op: no data race for TSan to flag, no torn halves within a field.
void pack(const FlightRecord& r, std::uint64_t w[]) noexcept {
  w[0] = r.trace;
  w[1] = r.leader;
  w[2] = r.key_hi;
  w[3] = r.key_lo;
  w[4] = static_cast<std::uint64_t>(r.start_ns);
  std::copy(r.stage_ns.begin(), r.stage_ns.end(), w + 5);
  w[5 + kStageCount] = r.k | (std::uint64_t{r.actions} << 16) |
                       (std::uint64_t{r.crossed} << 32) |
                       (std::uint64_t{r.outcome} << 48) |
                       (std::uint64_t{r.status} << 56);
  w[6 + kStageCount] = r.batch | (std::uint64_t{r.batch_seq} << 32);
  w[7 + kStageCount] = r.plan;
}

FlightRecord unpack(const std::uint64_t w[]) noexcept {
  FlightRecord r;
  r.trace = w[0];
  r.leader = w[1];
  r.key_hi = w[2];
  r.key_lo = w[3];
  r.start_ns = static_cast<std::int64_t>(w[4]);
  std::copy(w + 5, w + 5 + kStageCount, r.stage_ns.begin());
  const std::uint64_t small = w[5 + kStageCount];
  r.k = static_cast<std::uint16_t>(small);
  r.actions = static_cast<std::uint16_t>(small >> 16);
  r.crossed = static_cast<StageSet>(small >> 32);
  r.outcome = static_cast<std::uint8_t>(small >> 48);
  r.status = static_cast<std::uint8_t>(small >> 56);
  r.batch = static_cast<std::uint32_t>(w[6 + kStageCount]);
  r.batch_seq = static_cast<std::uint32_t>(w[6 + kStageCount] >> 32);
  r.plan = static_cast<std::uint8_t>(w[7 + kStageCount]);
  return r;
}

}  // namespace

void FlightRecord::mark(Stage s, std::int64_t end_ns) noexcept {
  const std::int64_t from = start_ns + static_cast<std::int64_t>(e2e_ns());
  stage_ns[static_cast<std::size_t>(s)] +=
      end_ns > from ? static_cast<std::uint64_t>(end_ns - from) : 0;
  crossed |= stage_bit(s);
}

std::uint64_t FlightRecord::e2e_ns() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t ns : stage_ns) sum += ns;
  return sum;
}

std::string format_us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  capacity = std::bit_ceil(std::max<std::size_t>(capacity, 8));
  mask_ = capacity - 1;
  slots_ = std::make_unique<Slot[]>(capacity);
}

void FlightRecorder::record(const FlightRecord& rec) noexcept {
  const std::uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(idx) & mask_];
  // Claim the slot: even -> this lap's odd sequence (the sequence encodes
  // the lap, so a reader that raced a wrap sees a mismatch). Odd means a
  // lapping writer is mid-write; past 2 * idx means a newer lap already
  // wrote the slot. Either way this record yields.
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 || seq > 2 * idx ||
      !slot.seq.compare_exchange_strong(seq, 2 * idx + 1,
                                        std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Orders the claim before the payload stores, for a reader whose
  // acquire fence sees any of them.
  std::atomic_thread_fence(std::memory_order_release);
  std::uint64_t words[kWords];
  pack(rec, words);
  for (std::size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * idx + 2, std::memory_order_release);
}

bool FlightRecorder::read_slot(const Slot& slot,
                               FlightRecord& out) const noexcept {
  const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
  if (before == 0 || (before & 1) != 0) return false;  // empty or mid-write
  std::uint64_t words[kWords];
  for (std::size_t i = 0; i < kWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != before) return false;
  out = unpack(words);
  return true;
}

std::optional<FlightRecord> FlightRecorder::find(
    std::uint64_t trace) const noexcept {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n =
      std::min<std::uint64_t>(head, static_cast<std::uint64_t>(mask_) + 1);
  // Newest first, so a re-submitted trace returns its latest journey.
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t idx = head - 1 - i;
    FlightRecord rec;
    if (read_slot(slots_[static_cast<std::size_t>(idx) & mask_], rec) &&
        rec.trace == trace) {
      return rec;
    }
  }
  return std::nullopt;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n =
      std::min<std::uint64_t>(head, static_cast<std::uint64_t>(mask_) + 1);
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t idx = head - n; idx < head; ++idx) {
    FlightRecord rec;
    if (read_slot(slots_[static_cast<std::size_t>(idx) & mask_], rec)) {
      out.push_back(rec);
    }
  }
  return out;
}

StageSketches::StageSketches(StageSet stages) {
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if ((stages & stage_bit(s)) != 0) {
      stage_[s] = std::make_unique<ShardedQuantiles>();
    }
  }
}

void StageSketches::record(const FlightRecord& rec) noexcept {
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if ((rec.crossed & stage_bit(s)) != 0 && stage_[s] != nullptr) {
      stage_[s]->record(rec.stage_ns[s]);
    }
  }
  e2e_.record(rec.e2e_ns());
}

QuantileSnapshot StageSketches::snapshot(Stage s) const {
  const auto& sketch = stage_[static_cast<std::size_t>(s)];
  return sketch != nullptr ? sketch->snapshot() : QuantileSnapshot{};
}

void StageSketches::write_prometheus(std::ostream& os) const {
  // One summary family, labeled by stage; the TYPE header rides on the
  // first stage only.
  bool first = true;
  const auto write = [&](std::string_view name, const ShardedQuantiles& q) {
    write_prometheus_summary(os, "svc.latency.seconds",
                             "stage=\"" + std::string(name) + "\"",
                             q.snapshot(), 1e-9, first);
    first = false;
  };
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (stage_[s] != nullptr) write(kStageNames[s], *stage_[s]);
  }
  write(kE2eName, e2e_);
}

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace ttp::obs
