#include "obs/quantiles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#ifndef _WIN32
#include <sys/mman.h>
#endif

namespace ttp::obs {

namespace {

constexpr std::size_t kBucketBytes =
    qdetail::kBucketCount * sizeof(std::uint64_t);

/// Zero-filled memory whose pages become resident only when first written:
/// an anonymous mapping where the platform has one, calloc elsewhere.
std::uint64_t* map_zeroed() {
#ifndef _WIN32
  void* p = ::mmap(nullptr, kBucketBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#else
  void* p = std::calloc(kBucketBytes, 1);
  if (p == nullptr) throw std::bad_alloc();
#endif
  return static_cast<std::uint64_t*>(p);
}

}  // namespace

QuantileSnapshot::QuantileSnapshot() {
  std::memset(buckets_, 0, sizeof(buckets_));
}

std::uint64_t QuantileSnapshot::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the answering sample: at least 1, at most count.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < qdetail::kBucketCount; ++b) {
    cum += buckets_[b];
    if (cum >= rank) {
      // Clamp to the observed extremes so the estimate never leaves the
      // recorded range (matters for the top bucket and q=0/q=1). Applied
      // as two one-sided clamps: a snapshot racing a writer can observe
      // min_ > max_, which std::clamp forbids.
      return std::min(std::max(qdetail::bucket_mid(b), min_), max_);
    }
  }
  return max_;
}

void QuantileSnapshot::merge(const QuantileSnapshot& other) noexcept {
  for (std::size_t b = 0; b < qdetail::kBucketCount; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void QuantileSketch::merge_into(QuantileSnapshot& out) const noexcept {
  for (std::size_t b = 0; b < qdetail::kBucketCount; ++b) {
    out.buckets_[b] += bucket(b).load(std::memory_order_relaxed);
  }
  out.count_ += count_.load(std::memory_order_relaxed);
  out.sum_ += sum_.load(std::memory_order_relaxed);
  out.min_ = std::min(out.min_, min_.load(std::memory_order_relaxed));
  out.max_ = std::max(out.max_, max_.load(std::memory_order_relaxed));
}

QuantileSketch::QuantileSketch() : buckets_(map_zeroed()) {}

QuantileSketch::~QuantileSketch() {
#ifndef _WIN32
  ::munmap(buckets_, kBucketBytes);
#else
  std::free(buckets_);
#endif
}

QuantileSnapshot QuantileSketch::snapshot() const {
  QuantileSnapshot s;
  merge_into(s);
  return s;
}

void QuantileSketch::reset() noexcept {
  for (std::size_t b = 0; b < qdetail::kBucketCount; ++b) {
    bucket(b).store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::uint64_t>::max(),
             std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

QuantileSketch& ShardedQuantiles::shard_for_thread() noexcept {
  // A stable per-thread index, handed out in turn, so up to kShards
  // concurrent threads never share a shard, as hashed thread ids often do.
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return shards_[idx % kShards];
}

QuantileSnapshot ShardedQuantiles::snapshot() const {
  QuantileSnapshot s;
  for (const QuantileSketch& shard : shards_) shard.merge_into(s);
  return s;
}

}  // namespace ttp::obs
