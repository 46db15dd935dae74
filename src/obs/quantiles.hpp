// Fixed-memory, mergeable quantile sketch for latency tails.
//
// The registry's log2 Histogram answers "how many in [2^b, 2^(b+1))" —
// up to 2x relative error at the tail, which is useless for p999 SLOs.
// QuantileSketch is an HDR-style sub-bucketed histogram: values below 64
// land in unit-width buckets (exact), and every power-of-two range above
// is split into 64 sub-buckets, so the midpoint estimate of any bucket is
// within 1/128 (~0.8%) of every value that bucket can hold. Quantiles are
// therefore exact-rank with <=1% relative value error, independent of the
// distribution (tests/test_quantiles.cpp pins this on randomized inputs).
//
// Memory is fixed: 64 + 58*64 buckets of one relaxed-atomic uint64 each
// (~30 KiB of address space). The buckets live in zero-filled pages that
// become resident only when first written, so a latency sketch, which
// touches a few hundred buckets, costs a page or two of RSS rather than
// all eight. record() is lock-free (a handful of relaxed fetch_adds) and
// snapshot()/merge are plain relaxed reads, so per-worker sketches can be
// folded together on scrape without stopping writers. ShardedQuantiles
// spreads writers over a small fixed set of sketches by thread to keep
// the hot cache lines from ping-ponging, merging on snapshot().
//
// Units are the caller's: the serving layer records microseconds.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace ttp::obs {

namespace qdetail {
/// Sub-bucket resolution: 2^6 = 64 slices per power-of-two range.
inline constexpr int kSubBits = 6;
inline constexpr std::uint64_t kSubBuckets = std::uint64_t{1} << kSubBits;
/// Exponents 0..kSubBits-1 are covered by the exact region; ranges run
/// from exponent kSubBits through 63.
inline constexpr std::size_t kBucketCount =
    kSubBuckets + (64 - kSubBits) * kSubBuckets;

inline std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;  // e >= kSubBits
  const std::uint64_t sub = (v - (std::uint64_t{1} << e)) >> (e - kSubBits);
  return kSubBuckets +
         static_cast<std::size_t>(e - kSubBits) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

/// Lowest value the bucket can hold.
inline std::uint64_t bucket_lo(std::size_t b) noexcept {
  if (b < kSubBuckets) return b;
  const std::size_t r = (b - kSubBuckets) >> kSubBits;
  const std::uint64_t sub = (b - kSubBuckets) & (kSubBuckets - 1);
  const int e = static_cast<int>(r) + kSubBits;
  return (std::uint64_t{1} << e) + (sub << (e - kSubBits));
}

/// Midpoint estimate: within half a sub-bucket of any member value.
inline std::uint64_t bucket_mid(std::size_t b) noexcept {
  if (b < kSubBuckets) return b;  // unit-width: exact
  const std::size_t r = (b - kSubBuckets) >> kSubBits;
  const int e = static_cast<int>(r) + kSubBits;
  const std::uint64_t width = std::uint64_t{1} << (e - kSubBits);
  return bucket_lo(b) + width / 2;
}
}  // namespace qdetail

/// A frozen, plain-integer copy of a sketch (or a merge of several).
/// Quantile queries and merging happen here, off the hot path.
class QuantileSnapshot {
 public:
  QuantileSnapshot();

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  /// UINT64_MAX when empty.
  std::uint64_t min() const noexcept { return min_; }
  std::uint64_t max() const noexcept { return max_; }

  /// Value estimate at quantile q in [0, 1]: the smallest bucket whose
  /// cumulative count reaches ceil(q * count), reported at its midpoint.
  /// 0 when the snapshot is empty.
  std::uint64_t quantile(double q) const noexcept;

  /// Fold another snapshot in (counts add, min/max widen).
  void merge(const QuantileSnapshot& other) noexcept;

 private:
  friend class QuantileSketch;
  std::uint64_t buckets_[qdetail::kBucketCount];
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// The live, writable sketch. record() is lock-free and wait-free;
/// snapshot() reads concurrently with writers (relaxed — a scrape racing a
/// record may miss it, never corrupt). Cache-line aligned, so the shards of
/// a ShardedQuantiles never share a line of counters.
class alignas(64) QuantileSketch {
 public:
  /// Guaranteed bound on |estimate - value| / value for any recorded value.
  static constexpr double kMaxRelativeError =
      1.0 / static_cast<double>(2 * qdetail::kSubBuckets);

  QuantileSketch();
  ~QuantileSketch();

  void record(std::uint64_t v) noexcept {
    bucket(qdetail::bucket_of(v)).fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_min(v);
    update_max(v);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Copies the live counters into `out` (additive: call on a fresh or
  /// already-merged snapshot to fold this sketch in).
  void merge_into(QuantileSnapshot& out) const noexcept;

  QuantileSnapshot snapshot() const;

  void reset() noexcept;

 private:
  std::atomic_ref<std::uint64_t> bucket(std::size_t b) const noexcept {
    return std::atomic_ref<std::uint64_t>(buckets_[b]);
  }
  void update_min(std::uint64_t v) noexcept {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t v) noexcept {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t* const buckets_;  ///< Pages resident once written.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
};

/// A fixed set of sketches indexed by recording thread, merged on scrape.
/// Spreads the fetch_add traffic of many concurrent workers over distinct
/// cache lines; the scrape pays the (cold-path) merge.
class ShardedQuantiles {
 public:
  static constexpr std::size_t kShards = 8;

  void record(std::uint64_t v) noexcept { shard_for_thread().record(v); }

  /// Merged view of all shards; lock-free with respect to writers.
  QuantileSnapshot snapshot() const;

  void reset() noexcept;

 private:
  QuantileSketch& shard_for_thread() noexcept;
  QuantileSketch shards_[kShards];
};

}  // namespace ttp::obs
