#include "svc/cache.hpp"

#include <algorithm>
#include <bit>

namespace ttp::svc {

std::size_t approx_bytes(const CachedProcedure& proc) {
  // Tree storage dominates for real procedures, but an entry's fixed
  // footprint is charged explicitly so a flood of tiny (small-k) entries
  // cannot blow past the byte budget while the accountant still reads
  // "nearly empty". Three heap allocations back one entry: the make_shared
  // block, the LRU list node, and the hash-map node.
  constexpr std::size_t kAllocHeader = 16;  // malloc bookkeeping per alloc
  // make_shared control block: vptr + two refcounts, padded.
  constexpr std::size_t kControlBlock = 4 * sizeof(void*);
  // std::list node: prev/next + Entry{key, shared_ptr, expiry}.
  constexpr std::size_t kListNode =
      2 * sizeof(void*) + sizeof(CanonKey) + sizeof(std::shared_ptr<void>) +
      sizeof(std::chrono::steady_clock::time_point);
  // unordered_map node: next ptr + cached hash + pair<key, iterator>, plus
  // this entry's share of the bucket array.
  constexpr std::size_t kMapNode = 2 * sizeof(void*) + sizeof(CanonKey) +
                                   sizeof(void*) + sizeof(void*);
  return sizeof(CachedProcedure) +
         proc.tree.nodes().capacity() * sizeof(tt::TreeNode) +
         kControlBlock + kListNode + kMapNode + 3 * kAllocHeader;
}

ProcedureCache::ProcedureCache(CacheConfig cfg, obs::MetricsRegistry& metrics)
    : cfg_(std::move(cfg)),
      hits_(metrics.counter("svc.cache.hits")),
      misses_(metrics.counter("svc.cache.misses")),
      inserts_(metrics.counter("svc.cache.inserts")),
      evictions_(metrics.counter("svc.cache.evictions")),
      expired_(metrics.counter("svc.cache.expired")),
      bytes_gauge_(metrics.gauge("svc.cache.bytes")) {
  const std::size_t n = std::bit_ceil(std::max<std::size_t>(cfg_.shards, 1));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = std::max<std::size_t>(cfg_.capacity_bytes / n, 1);
}

void ProcedureCache::erase_locked(Shard& s, std::list<Entry>::iterator it) {
  s.bytes -= it->proc->bytes;
  s.index.erase(it->key);
  s.lru.erase(it);
}

void ProcedureCache::publish_bytes() { bytes_gauge_.set(double(bytes())); }

std::shared_ptr<const CachedProcedure> ProcedureCache::find(
    const CanonKey& key, bool count_miss) {
  Shard& s = shard_of(key);
  std::shared_ptr<const CachedProcedure> out;
  bool erased = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.index.find(key);
    if (it == s.index.end()) {
      if (count_miss) misses_.add(1);
      return nullptr;
    }
    if (cfg_.ttl.count() > 0 && cfg_.now() >= it->second->expiry) {
      erase_locked(s, it->second);
      expired_.add(1);
      if (count_miss) misses_.add(1);
      erased = true;
    } else {
      s.lru.splice(s.lru.begin(), s.lru, it->second);  // bump to MRU
      out = it->second->proc;
      hits_.add(1);
    }
  }
  if (erased) publish_bytes();
  return out;
}

void ProcedureCache::insert(const CanonKey& key,
                            std::shared_ptr<const CachedProcedure> p) {
  const auto expiry = cfg_.ttl.count() > 0
                          ? cfg_.now() + cfg_.ttl
                          : Clock::time_point::max();
  Shard& s = shard_of(key);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.index.find(key);
    if (it != s.index.end()) erase_locked(s, it->second);
    s.lru.push_front(Entry{key, std::move(p), expiry});
    s.bytes += s.lru.front().proc->bytes;
    s.index.emplace(key, s.lru.begin());
    inserts_.add(1);
    // Evict LRU tail entries until this shard fits its capacity share; the
    // just-inserted entry survives even when it alone exceeds the share
    // (rejecting it would make oversized-but-admitted instances uncacheable
    // and re-solved forever).
    while (s.bytes > shard_capacity_ && s.lru.size() > 1) {
      erase_locked(s, std::prev(s.lru.end()));
      evictions_.add(1);
    }
  }
  publish_bytes();
}

std::size_t ProcedureCache::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->index.size();
  }
  return n;
}

std::size_t ProcedureCache::bytes() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->bytes;
  }
  return n;
}

void ProcedureCache::clear() {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->lru.clear();
    s->index.clear();
    s->bytes = 0;
  }
  publish_bytes();
}

}  // namespace ttp::svc
