#include "store/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ttp::store {

namespace {

std::uint64_t default_wall_now_s() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string join(const std::string& dir, const std::string& name) {
  if (!dir.empty() && dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

struct DirScan {
  std::vector<std::uint64_t> seqs;       // sorted ascending
  std::vector<std::string> tmp_names;    // leftover seg-*.tmp etc.
};

DirScan scan_dir(const std::string& dir) {
  DirScan out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw std::runtime_error("opendir " + dir + ": " + std::strerror(errno));
  }
  while (dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    std::uint64_t seq = 0;
    if (parse_segment_seq(name, seq)) {
      out.seqs.push_back(seq);
    } else if (name.size() > 4 &&
               name.substr(name.size() - 4) == ".tmp" &&
               name.substr(0, 4) == "seg-") {
      out.tmp_names.emplace_back(name);
    }
  }
  ::closedir(d);
  std::sort(out.seqs.begin(), out.seqs.end());
  return out;
}

}  // namespace

bool parse_sync_mode(std::string_view text, StoreConfig::Sync& out) {
  if (text == "none") {
    out = StoreConfig::Sync::kNone;
  } else if (text == "batch") {
    out = StoreConfig::Sync::kBatch;
  } else if (text == "always") {
    out = StoreConfig::Sync::kAlways;
  } else {
    return false;
  }
  return true;
}

std::string_view sync_mode_name(StoreConfig::Sync s) noexcept {
  switch (s) {
    case StoreConfig::Sync::kNone:
      return "none";
    case StoreConfig::Sync::kBatch:
      return "batch";
    case StoreConfig::Sync::kAlways:
      return "always";
  }
  return "?";
}

ProcedureStore::ProcedureStore(StoreConfig cfg, obs::MetricsRegistry& metrics)
    : cfg_(std::move(cfg)),
      hits_(metrics.counter(cfg_.metric_prefix + ".hits")),
      misses_(metrics.counter(cfg_.metric_prefix + ".misses")),
      appends_(metrics.counter(cfg_.metric_prefix + ".appends")),
      compactions_(metrics.counter(cfg_.metric_prefix + ".compactions")),
      corrupt_(metrics.counter(cfg_.metric_prefix + ".corrupt_skipped")),
      bytes_gauge_(metrics.gauge(cfg_.metric_prefix + ".bytes")),
      live_gauge_(metrics.gauge(cfg_.metric_prefix + ".live")),
      segments_gauge_(metrics.gauge(cfg_.metric_prefix + ".segments")) {
  if (cfg_.dir.empty()) {
    throw std::runtime_error("ProcedureStore: empty directory");
  }
  if (!cfg_.wall_now_s) cfg_.wall_now_s = default_wall_now_s;
  open_and_replay();
  if (cfg_.background_compaction) {
    worker_ = std::thread([this] { worker_main(); });
  }
}

ProcedureStore::~ProcedureStore() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(active_seq_);
  if (it != segments_.end() && it->second.valid()) {
    it->second.sync();  // drain: whatever reached us is durable on close
    // An active segment holding only the header carries no data — drop it
    // so restarts don't accumulate empty files.
    if (it->second.size() <= kSegmentHeaderBytes) {
      it->second.close_and_unlink();
    }
  }
  // Remaining segments close via their destructors.
}

void ProcedureStore::open_and_replay() {
  if (!ensure_dir(cfg_.dir)) {
    throw std::runtime_error("store: cannot create directory " + cfg_.dir);
  }
  const DirScan scan = scan_dir(cfg_.dir);
  for (const std::string& tmp : scan.tmp_names) {
    ::unlink(join(cfg_.dir, tmp).c_str());  // crashed mid-compaction
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < scan.seqs.size(); ++i) {
    replay_segment(scan.seqs[i], /*youngest=*/i + 1 == scan.seqs.size());
  }
  const std::uint64_t next =
      scan.seqs.empty() ? 1 : scan.seqs.back() + 1;
  segments_.emplace(
      next, Segment::open_active(join(cfg_.dir, segment_filename(next))));
  active_seq_ = next;
  sync_dir(cfg_.dir);
  publish_gauges_locked();
}

void ProcedureStore::replay_segment(std::uint64_t seq, bool youngest) {
  const std::string path = join(cfg_.dir, segment_filename(seq));
  Segment seg = Segment::open_frozen(path);
  const std::string_view bytes = seg.mapped();
  bool header_ok = true;
  try {
    check_segment_header(bytes);
  } catch (const std::invalid_argument&) {
    header_ok = false;
  }
  if (!header_ok) {
    if (youngest && bytes.size() < kSegmentHeaderBytes) {
      // Crashed between creat() and the header write: an empty shell, not
      // data loss. Drop it; its sequence number is never reused because the
      // caller picks max+1 from the scan.
      seg.close_and_unlink();
      return;
    }
    // Unreadable header on a populated segment: nothing in it can be
    // trusted. Keep the file in the table (compaction will retire it) but
    // index nothing.
    corrupt_.add(1);
    segments_.emplace(seq, std::move(seg));
    return;
  }
  std::size_t off = kSegmentHeaderBytes;
  std::uint64_t truncate_at = 0;
  bool want_truncate = false;
  while (off < bytes.size()) {
    const ParseResult pr = parse_record(bytes.substr(off));
    if (pr.status == ParseStatus::kOk) {
      if (pr.record.kind == kRecordProcedure) {
        index_[pr.record.key] =
            Loc{seq, off, static_cast<std::uint32_t>(pr.consumed),
                pr.record.stamp_s, pr.record.stamp_s};
      }
      off += pr.consumed;
      continue;
    }
    if (pr.status == ParseStatus::kCorrupt && pr.consumed > 0) {
      // Mid-file CRC failure with a believable frame: skip it, keep going.
      corrupt_.add(1);
      off += pr.consumed;
      continue;
    }
    // Truncated frame, or a garbage length prefix. On the youngest segment
    // this is the torn tail of the crashed writer — cut it off. Elsewhere
    // it is corruption; the rest of the segment is unscannable.
    if (youngest) {
      truncate_at = off;
      want_truncate = true;
    } else {
      corrupt_.add(1);
    }
    break;
  }
  if (want_truncate) {
    truncated_tail_bytes_ += bytes.size() - truncate_at;
    seg.close();  // unmap before shrinking the file under the mapping
    if (::truncate(path.c_str(), static_cast<off_t>(truncate_at)) != 0) {
      throw std::runtime_error("store: truncate " + path + ": " +
                               std::strerror(errno));
    }
    seg = Segment::open_frozen(path);
  }
  segments_.emplace(seq, std::move(seg));
}

std::uint64_t ProcedureStore::total_bytes_locked() const {
  std::uint64_t n = 0;
  for (const auto& [seq, seg] : segments_) n += seg.size();
  return n;
}

void ProcedureStore::publish_gauges_locked() {
  bytes_gauge_.set(static_cast<double>(total_bytes_locked()));
  live_gauge_.set(static_cast<double>(index_.size()));
  segments_gauge_.set(static_cast<double>(segments_.size()));
}

std::optional<ProcedureStore::Procedure> ProcedureStore::get(
    const StoreKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.add(1);
    return std::nullopt;
  }
  Loc& loc = it->second;
  const auto seg_it = segments_.find(loc.seq);
  std::string buf;
  std::string_view frame;
  bool io_ok = seg_it != segments_.end();
  if (io_ok && seg_it->second.active()) {
    io_ok = seg_it->second.read_at(loc.offset, loc.frame_len, buf);
    frame = buf;
  } else if (io_ok) {
    const std::string_view mapped = seg_it->second.mapped();
    io_ok = loc.offset + loc.frame_len <= mapped.size();
    if (io_ok) frame = mapped.substr(loc.offset, loc.frame_len);
  }
  ParseResult pr;
  if (io_ok) pr = parse_record(frame);
  if (!io_ok || pr.status != ParseStatus::kOk || !(pr.record.key == key)) {
    // The indexed bytes no longer check out (bit rot, I/O error): drop the
    // entry so the caller re-solves and the next put repairs the store.
    corrupt_.add(1);
    index_.erase(it);
    misses_.add(1);
    publish_gauges_locked();
    return std::nullopt;
  }
  loc.last_used_s = cfg_.wall_now_s();
  hits_.add(1);
  return Procedure{pr.record.cost, std::move(pr.record.tree)};
}

bool ProcedureStore::put(const StoreKey& key, double cost,
                         const tt::Tree& tree) {
  Record rec;
  rec.key = key;
  rec.stamp_s = cfg_.wall_now_s();
  rec.kind = kRecordProcedure;
  rec.cost = cost;
  rec.tree = tree;
  std::string frame;
  try {
    append_record(rec, frame);
  } catch (const std::invalid_argument&) {
    return false;  // oversized tree: not storable, not an error
  }
  bool over_budget = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Segment& act = segments_.at(active_seq_);
    const std::uint64_t off = act.size();
    if (!act.append(frame)) return false;
    appends_.add(1);
    index_[key] = Loc{active_seq_, off,
                      static_cast<std::uint32_t>(frame.size()), rec.stamp_s,
                      rec.stamp_s};
    ++dirty_appends_;
    if (cfg_.sync == StoreConfig::Sync::kAlways ||
        (cfg_.sync == StoreConfig::Sync::kBatch &&
         dirty_appends_ >= cfg_.batch_appends)) {
      act.sync();
      dirty_appends_ = 0;
    }
    publish_gauges_locked();
    over_budget = total_bytes_locked() > cfg_.max_bytes && !compacting_;
  }
  if (over_budget) maybe_trigger_compaction();
  return true;
}

void ProcedureStore::maybe_trigger_compaction() {
  if (cfg_.background_compaction) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      compact_requested_ = true;
    }
    cv_.notify_all();
  } else {
    compact_now();
  }
}

void ProcedureStore::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stop_ || compact_requested_; });
    if (stop_) return;
    compact_requested_ = false;
    compact_locked(lk);
  }
}

std::uint64_t ProcedureStore::compact_now() {
  std::unique_lock<std::mutex> lk(mu_);
  return compact_locked(lk);
}

std::uint64_t ProcedureStore::compact_locked(std::unique_lock<std::mutex>& lk) {
  if (compacting_) return 0;
  compacting_ = true;

  // --- Phase 1 (locked): rotate. Active S freezes; the compacted output
  // will be S+1; new appends go to S+2. Replay order (ascending seq) then
  // reads the compacted copy *before* anything appended during or after
  // this compaction, so later-wins semantics hold at every crash point.
  const std::uint64_t S = active_seq_;
  const std::uint64_t out_seq = S + 1;
  const std::uint64_t new_active = S + 2;
  struct Snap {
    StoreKey key;
    Loc loc;
  };
  std::vector<Snap> snap;
  std::uint64_t before_bytes = 0;
  try {
    Segment next = Segment::open_active(
        join(cfg_.dir, segment_filename(new_active)));
    Segment& old = segments_.at(S);
    old.sync();
    old.freeze();
    segments_.emplace(new_active, std::move(next));
    active_seq_ = new_active;
    dirty_appends_ = 0;
  } catch (const std::runtime_error&) {
    compacting_ = false;
    return 0;  // rotation failed; old active still usable, try again later
  }
  snap.reserve(index_.size());
  for (const auto& [key, loc] : index_) {
    if (loc.seq <= S) snap.push_back(Snap{key, loc});
  }
  for (const auto& [seq, seg] : segments_) {
    if (seq <= S) before_bytes += seg.size();
  }
  lk.unlock();

  // --- Phase 2 (unlocked): pick survivors, write the replacement segment.
  // Source segments are frozen and mapped; nobody unmaps them while
  // `compacting_` is set, so raw frames can be copied without the lock.
  const std::uint64_t now_s = cfg_.wall_now_s();
  std::vector<Snap> live;
  live.reserve(snap.size());
  for (const Snap& s : snap) {
    if (cfg_.ttl_seconds > 0 && s.loc.stamp_s + cfg_.ttl_seconds <= now_s) {
      continue;  // expired: dropped for good
    }
    live.push_back(s);
  }
  // Hot-first, then keep while under the post-compaction target.
  std::sort(live.begin(), live.end(), [](const Snap& a, const Snap& b) {
    if (a.loc.last_used_s != b.loc.last_used_s) {
      return a.loc.last_used_s > b.loc.last_used_s;
    }
    return a.loc.stamp_s > b.loc.stamp_s;
  });
  const std::uint64_t target = cfg_.max_bytes - cfg_.max_bytes / 4;
  std::uint64_t kept_bytes = kSegmentHeaderBytes;
  std::size_t keep_n = 0;
  while (keep_n < live.size() &&
         kept_bytes + live[keep_n].loc.frame_len <= target) {
    kept_bytes += live[keep_n].loc.frame_len;
    ++keep_n;
  }
  live.resize(keep_n);

  bool wrote_output = false;
  Segment out;
  std::unordered_map<StoreKey, Loc, StoreKeyHash> new_locs;
  if (!live.empty()) {
    const std::string tmp_path =
        join(cfg_.dir, segment_filename(out_seq) + ".tmp");
    const std::string final_path = join(cfg_.dir, segment_filename(out_seq));
    try {
      Segment tmp = Segment::open_active(tmp_path);
      for (const Snap& s : live) {
        const std::string_view mapped = segments_.at(s.loc.seq).mapped();
        const std::uint64_t off = tmp.size();
        if (!tmp.append(mapped.substr(s.loc.offset, s.loc.frame_len))) {
          throw std::runtime_error("store: compaction append failed");
        }
        Loc moved = s.loc;
        moved.seq = out_seq;
        moved.offset = off;
        new_locs.emplace(s.key, moved);
      }
      if (!tmp.sync()) throw std::runtime_error("store: compaction fsync");
      tmp.close();
      if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        throw std::runtime_error("store: compaction rename failed");
      }
      sync_dir(cfg_.dir);
      out = Segment::open_frozen(final_path);
      wrote_output = true;
    } catch (const std::runtime_error&) {
      ::unlink(tmp_path.c_str());
      lk.lock();
      compacting_ = false;
      return 0;  // old segments untouched; nothing lost
    }
  }

  // --- Phase 3 (locked): swap the index, retire replaced segments.
  lk.lock();
  if (wrote_output) segments_.emplace(out_seq, std::move(out));
  for (const Snap& s : snap) {
    const auto it = index_.find(s.key);
    if (it == index_.end() || it->second.seq > S) {
      continue;  // re-put during phase 2: the newer record wins
    }
    const auto kept = new_locs.find(s.key);
    if (kept != new_locs.end()) {
      // Preserve any recency bump that happened during phase 2.
      const std::uint64_t used =
          std::max(it->second.last_used_s, kept->second.last_used_s);
      it->second = kept->second;
      it->second.last_used_s = used;
    } else {
      index_.erase(it);  // expired or cold: dropped
    }
  }
  for (auto it = segments_.begin();
       it != segments_.end() && it->first <= S;) {
    it->second.close_and_unlink();
    it = segments_.erase(it);
  }
  sync_dir(cfg_.dir);
  compactions_.add(1);
  compacting_ = false;
  publish_gauges_locked();
  const std::uint64_t after =
      wrote_output ? segments_.at(out_seq).size() : 0;
  return before_bytes > after ? before_bytes - after : 0;
}

StoreStats ProcedureStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreStats st;
  st.segments = segments_.size();
  st.live_records = index_.size();
  st.bytes = total_bytes_locked();
  st.hits = hits_.value();
  st.misses = misses_.value();
  st.appends = appends_.value();
  st.compactions = compactions_.value();
  st.corrupt_skipped = corrupt_.value();
  st.truncated_tail_bytes = truncated_tail_bytes_;
  return st;
}

std::size_t ProcedureStore::index_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

VerifyReport verify_dir(const std::string& dir) {
  VerifyReport rep;
  const DirScan scan = scan_dir(dir);
  rep.ok = true;
  std::unordered_map<StoreKey, bool, StoreKeyHash> live;
  for (std::size_t i = 0; i < scan.seqs.size(); ++i) {
    const bool youngest = i + 1 == scan.seqs.size();
    Segment seg =
        Segment::open_frozen(join(dir, segment_filename(scan.seqs[i])));
    const std::string_view bytes = seg.mapped();
    ++rep.segments;
    rep.bytes += bytes.size();
    try {
      check_segment_header(bytes);
    } catch (const ForeignVersion& e) {
      ++rep.foreign_version;
      rep.foreign_format = e.version;
      rep.ok = false;
      continue;
    } catch (const std::invalid_argument&) {
      if (youngest && bytes.size() < kSegmentHeaderBytes) {
        rep.torn_tail_bytes += bytes.size();
      } else {
        ++rep.corrupt;
        rep.ok = false;
      }
      continue;
    }
    std::size_t off = kSegmentHeaderBytes;
    while (off < bytes.size()) {
      const ParseResult pr = parse_record(bytes.substr(off));
      if (pr.status == ParseStatus::kOk) {
        ++rep.records;
        if (pr.record.kind == kRecordProcedure) live[pr.record.key] = true;
        off += pr.consumed;
        continue;
      }
      if (pr.status == ParseStatus::kCorrupt && pr.consumed > 0) {
        ++rep.corrupt;
        rep.ok = false;
        off += pr.consumed;
        continue;
      }
      if (youngest) {
        rep.torn_tail_bytes += bytes.size() - off;
      } else {
        ++rep.corrupt;
        rep.ok = false;
      }
      break;
    }
  }
  rep.live_records = live.size();
  return rep;
}

}  // namespace ttp::store
