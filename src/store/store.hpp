// Durable procedure store: a crash-safe, append-only log of solved canonical
// instances, serving as the persistent second tier behind the in-memory LRU
// (svc::ProcedureCache). See docs/store.md for the full design.
//
// Shape:
//   - Writes append framed, CRC-32C-checksummed records (store/format.hpp)
//     to the active segment with a single O_APPEND write() each. A record
//     that entered the page cache survives kill -9; the --store-sync knob
//     (none|batch|always) only governs durability across *machine* crashes.
//   - Open replays every segment in sequence order rebuilding the key →
//     location index (later records win). A torn tail on the youngest
//     segment is truncated away; corrupt records elsewhere are skipped and
//     counted, never served.
//   - Reads resolve through the index and deserialize straight from the
//     read-only mmap of a frozen segment (warm restarts never re-solve) or
//     via pread on the active segment.
//   - When the directory exceeds max_bytes, compaction rewrites live,
//     unexpired, recently-used records into a fresh segment and atomically
//     swaps it in (write tmp → fsync → rename → fsync dir), then unlinks
//     the replaced segments. Sequence numbers are chosen so replay order is
//     preserved at every crash point (rotation S → S+2, output at S+1).
//
// Thread safety: all public methods are safe to call concurrently; one
// mutex guards the index and segment table. Compaction holds the lock only
// to rotate and to swap the index — the rewrite itself runs unlocked
// against immutable mapped segments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "store/format.hpp"
#include "store/log.hpp"
#include "tt/tree.hpp"

namespace ttp::store {

struct StoreConfig {
  /// Directory holding the segments; created if absent (one level).
  std::string dir;

  enum class Sync {
    kNone,    ///< Never fsync on the write path (close/drain still syncs).
    kBatch,   ///< fsync every `batch_appends` appends.
    kAlways,  ///< fsync after every append.
  };
  Sync sync = Sync::kBatch;

  /// Compaction trigger: when segment bytes on disk exceed this, live
  /// records are rewritten and cold/expired ones dropped. The post-compaction
  /// target is 3/4 of this budget.
  std::uint64_t max_bytes = std::uint64_t{256} << 20;

  /// Records older than this (by append wall-clock stamp) are dropped at
  /// compaction and never revived. 0 = no expiry.
  std::uint64_t ttl_seconds = 0;

  std::size_t batch_appends = 32;  ///< kBatch fsync cadence.

  /// Run compaction on a background thread (the serving default). When
  /// false, put() compacts inline once over budget — simpler to reason
  /// about in tests and the offline tool.
  bool background_compaction = true;

  /// Metric name prefix: `<prefix>.{hits,misses,appends,...}`.
  std::string metric_prefix = "svc.store";

  /// Wall-clock seconds (TTL basis); injectable so tests can expire records
  /// without sleeping.
  std::function<std::uint64_t()> wall_now_s;
};

/// Parses "none"/"batch"/"always"; false on anything else.
bool parse_sync_mode(std::string_view text, StoreConfig::Sync& out);
std::string_view sync_mode_name(StoreConfig::Sync s) noexcept;

struct StoreStats {
  std::uint64_t segments = 0;
  std::uint64_t live_records = 0;
  std::uint64_t bytes = 0;            ///< Sum of segment file sizes.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t appends = 0;
  std::uint64_t compactions = 0;
  std::uint64_t corrupt_skipped = 0;  ///< Lifetime, including replay.
  std::uint64_t truncated_tail_bytes = 0;  ///< Torn tail dropped at open.
};

class ProcedureStore {
 public:
  /// Opens the directory, replays segments, rebuilds the index, truncates a
  /// torn tail, and starts the compaction thread. Throws std::runtime_error
  /// when the directory cannot be created/opened or a segment is unreadable
  /// at the I/O level (corrupt *contents* are recovered, not fatal).
  ProcedureStore(StoreConfig cfg, obs::MetricsRegistry& metrics);

  /// Graceful close: stops compaction, fsyncs the active segment regardless
  /// of sync mode, closes everything (the drain path on SIGTERM).
  ~ProcedureStore();

  ProcedureStore(const ProcedureStore&) = delete;
  ProcedureStore& operator=(const ProcedureStore&) = delete;

  struct Procedure {
    double cost = 0.0;
    tt::Tree tree;
  };

  /// Looks the key up and deserializes the stored procedure. nullopt on
  /// miss; a record that fails its CRC on read is dropped from the index,
  /// counted corrupt, and reported as a miss (the caller re-solves).
  std::optional<Procedure> get(const StoreKey& key);

  /// Appends a record and indexes it (later puts shadow earlier ones).
  /// False on I/O error or an oversized tree — the store degrades to a
  /// cache miss, never fails the request.
  bool put(const StoreKey& key, double cost, const tt::Tree& tree);

  /// Runs one compaction synchronously; returns bytes reclaimed (0 when
  /// another compaction is in flight or nothing to do).
  std::uint64_t compact_now();

  StoreStats stats() const;
  std::size_t index_size() const;
  const StoreConfig& config() const noexcept { return cfg_; }

 private:
  struct Loc {
    std::uint64_t seq = 0;       ///< Owning segment.
    std::uint64_t offset = 0;    ///< Frame start within the segment.
    std::uint32_t frame_len = 0; ///< 8-byte header + body.
    std::uint64_t stamp_s = 0;   ///< Append time (TTL basis).
    std::uint64_t last_used_s = 0;  ///< Recency for compaction's LRU drop.
  };

  void open_and_replay();
  void replay_segment(std::uint64_t seq, bool youngest);
  std::uint64_t total_bytes_locked() const;
  void publish_gauges_locked();
  void maybe_trigger_compaction();
  std::uint64_t compact_locked(std::unique_lock<std::mutex>& lk);
  void worker_main();

  StoreConfig cfg_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Segment> segments_;  ///< seq → file, replay order.
  std::uint64_t active_seq_ = 0;
  std::unordered_map<StoreKey, Loc, StoreKeyHash> index_;
  std::size_t dirty_appends_ = 0;
  bool compacting_ = false;
  std::uint64_t truncated_tail_bytes_ = 0;

  std::condition_variable cv_;
  bool stop_ = false;
  bool compact_requested_ = false;
  std::thread worker_;

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& appends_;
  obs::Counter& compactions_;
  obs::Counter& corrupt_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& live_gauge_;
  obs::Gauge& segments_gauge_;
};

/// Read-only integrity scan of a store directory (the `ttp_store verify`
/// tool): parses every segment without touching anything on disk.
struct VerifyReport {
  std::uint64_t segments = 0;
  std::uint64_t records = 0;       ///< Valid records (including shadowed).
  std::uint64_t live_records = 0;  ///< Distinct keys, latest record wins.
  std::uint64_t corrupt = 0;       ///< CRC/decode failures mid-file.
  /// Segments with an intact header of another format version (unread).
  std::uint64_t foreign_version = 0;
  std::uint32_t foreign_format = 0;  ///< The last such version seen.
  std::uint64_t torn_tail_bytes = 0;  ///< Incomplete frame at youngest tail.
  std::uint64_t bytes = 0;
  bool ok = false;  ///< No corrupt or foreign-version segment.
};
VerifyReport verify_dir(const std::string& dir);

}  // namespace ttp::store
