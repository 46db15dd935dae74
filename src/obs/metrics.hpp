// Process-wide metrics primitives: counters, gauges, and log2-bucketed
// histograms, collected in a MetricsRegistry.
//
// Names are string_view on the hot path (no temporary std::string per
// add), the backing store is an unordered_map with heterogeneous lookup,
// and every instrument is safe to update concurrently (atomics behind a
// stable reference).
//
// The registry is deliberately dependency-free so that every layer of the
// tree (util included) can link against it.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ttp::obs {

/// Monotonically increasing sum. add() is lock-free.
class Counter {
 public:
  void add(std::uint64_t v) noexcept {
    v_.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depths, worker counts).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed log2 bucketing: bucket 0 holds the value 0 and bucket b >= 1 holds
/// values in [2^(b-1), 2^b - 1], so any uint64 lands in one of 65 buckets
/// with a single bit_width(). Tracks count/sum/min/max alongside.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  Histogram() = default;
  /// Relaxed snapshot copy (atomics are not copyable by default).
  Histogram(const Histogram& o) noexcept { *this = o; }
  Histogram& operator=(const Histogram& o) noexcept {
    for (int b = 0; b < kBuckets; ++b) {
      buckets_[static_cast<std::size_t>(b)].store(o.bucket_count(b),
                                                  std::memory_order_relaxed);
    }
    count_.store(o.count(), std::memory_order_relaxed);
    sum_.store(o.sum(), std::memory_order_relaxed);
    min_.store(o.min(), std::memory_order_relaxed);
    max_.store(o.max(), std::memory_order_relaxed);
    return *this;
  }

  static int bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0 : std::bit_width(v);
  }
  static std::uint64_t bucket_lo(int b) noexcept {
    return b <= 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  static std::uint64_t bucket_hi(int b) noexcept {
    if (b <= 0) return 0;
    if (b >= 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << b) - 1;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_min(v);
    update_max(v);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// UINT64_MAX when empty.
  std::uint64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket_count(int b) const noexcept {
    return b < 0 || b >= kBuckets
               ? 0
               : buckets_[static_cast<std::size_t>(b)].load(
                     std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
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

  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
};

/// Named instruments with stable references: the pointer returned by
/// counter()/gauge()/histogram() stays valid for the registry's lifetime
/// (and across moves), so call sites may cache it. Lookup takes the
/// registry mutex; updates through the returned reference are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry& o);
  MetricsRegistry& operator=(const MetricsRegistry& o);
  MetricsRegistry(MetricsRegistry&& o) noexcept;
  MetricsRegistry& operator=(MetricsRegistry&& o) noexcept;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // --- Name-keyed counter convenience API ----------------------------------
  void add(std::string_view name, std::uint64_t v) { counter(name).add(v); }
  /// 0 for unknown names.
  std::uint64_t get(std::string_view name) const;
  /// Counter snapshot sorted by name — deterministic iteration for reports
  /// even though the backing store is unordered.
  std::vector<std::pair<std::string, std::uint64_t>> all() const;
  // -------------------------------------------------------------------------

  std::vector<std::pair<std::string, double>> gauges() const;
  /// Applies `fn(name, histogram)` to each histogram, sorted by name.
  void visit_histograms(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;

  bool empty() const;
  /// Drops every instrument (references from before reset() dangle).
  void reset();

  /// Human-readable dump: counters, gauges, then histograms with non-empty
  /// buckets, all sorted by name.
  void print(std::ostream& os, std::string_view indent = "  ") const;

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename T>
  using Map =
      std::unordered_map<std::string, std::unique_ptr<T>, StringHash,
                         std::equal_to<>>;

  template <typename T>
  static T& intern(Map<T>& m, std::string_view name);

  mutable std::mutex mu_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
};

}  // namespace ttp::obs
