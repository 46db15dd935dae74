// Sharded LRU procedure cache: canonical key -> solved procedure.
//
// The serving hot path is read-mostly with high key skew (popular instances
// repeat), so the cache is N-way sharded by key hash: each shard owns an
// intrusive LRU list plus a hash map under its own mutex, and capacity is
// accounted in bytes (tree storage dominates, and a k=20 tree is ~6 orders
// larger than a k=4 one, so entry counts would be meaningless).
//
// Entries are handed out as shared_ptr<const CachedProcedure>, so an entry
// evicted while a response is still being serialized stays alive until the
// last reader drops it. Entries never expire: a cached procedure is a pure
// function of its canonical instance, so only the byte budget evicts.
//
// Counters land in the owning service's obs::MetricsRegistry under
// svc.cache.{hits,misses,inserts,evictions} with a svc.cache.bytes
// gauge; they are always on (the registry is the service's own, not the
// global tracer's, so serving stats exist even with TTP_TRACE=off).
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/canon.hpp"
#include "tt/tree.hpp"

namespace ttp::svc {

/// A solved canonical instance, as stored (and served) by the cache. The
/// tree's action indices refer to the canonical instance; `cost` is the
/// canonical expected cost (multiply by the request's weight_scale).
struct CachedProcedure {
  tt::Tree tree;
  double cost = 0.0;
  std::size_t bytes = 0;  ///< Accounting size, set by approx_bytes().
};

/// Conservative per-entry footprint: node storage + map/list bookkeeping.
std::size_t approx_bytes(const CachedProcedure& proc);

struct CacheConfig {
  std::size_t capacity_bytes = std::size_t{64} << 20;
  std::size_t shards = 8;  ///< Rounded up to a power of two, minimum 1.
};

class ProcedureCache {
 public:
  ProcedureCache(CacheConfig cfg, obs::MetricsRegistry& metrics);

  ProcedureCache(const ProcedureCache&) = delete;
  ProcedureCache& operator=(const ProcedureCache&) = delete;

  /// Hit: bumps the entry to most-recent and returns it. Absent: counts a
  /// miss and returns nullptr. `count_miss = false` is for a re-check of a
  /// key whose miss the same request already counted.
  std::shared_ptr<const CachedProcedure> find(const CanonKey& key,
                                              bool count_miss = true);

  /// Inserts (or refreshes) the entry and evicts least-recently-used
  /// entries from the shard until it fits its capacity share.
  void insert(const CanonKey& key, std::shared_ptr<const CachedProcedure> p);

  std::size_t size() const;   ///< Live entries across all shards.
  std::size_t bytes() const;  ///< Accounted bytes across all shards.
  void clear();

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Configured byte budget across all shards (HEALTH reports bytes/capacity).
  std::size_t capacity_bytes() const noexcept { return cfg_.capacity_bytes; }

 private:
  struct Entry {
    CanonKey key;
    std::shared_ptr<const CachedProcedure> proc;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< Front = most recently used.
    std::unordered_map<CanonKey, std::list<Entry>::iterator, CanonKeyHash>
        index;
    std::size_t bytes = 0;
  };

  Shard& shard_of(const CanonKey& key) {
    return *shards_[static_cast<std::size_t>(CanonKeyHash{}(key)) &
                    (shards_.size() - 1)];
  }
  void erase_locked(Shard& s, std::list<Entry>::iterator it);
  void publish_bytes();

  CacheConfig cfg_;
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& inserts_;
  obs::Counter& evictions_;
  obs::Gauge& bytes_gauge_;
};

}  // namespace ttp::svc
