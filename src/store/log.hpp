// Segment files for the durable procedure store: POSIX fds, O_APPEND
// writes, read-only mmap, fsync. No record knowledge here (store/format.hpp)
// and no index/replay logic (store/store.hpp) — just bytes on disk.
//
// A segment is either *active* (the one O_APPEND writer; reads go through
// pread so the mapping never has to chase the growing tail) or *frozen*
// (immutable; reads are string_views straight into a shared read-only mmap —
// the warm-restart fast path deserializes from the page cache with zero
// copies).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ttp::store {

/// "seg-00000000000000000042.ttps" — fixed-width decimal so lexicographic
/// order equals replay order.
std::string segment_filename(std::uint64_t seq);

/// Inverts segment_filename; false for foreign names (tmp files, dotfiles).
bool parse_segment_seq(std::string_view filename, std::uint64_t& seq);

class Segment {
 public:
  Segment() = default;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;
  Segment(Segment&& o) noexcept { *this = std::move(o); }
  Segment& operator=(Segment&& o) noexcept;
  ~Segment();

  /// Opens (creating if needed) for O_APPEND writing; writes the segment
  /// header if the file is empty. Throws std::runtime_error on I/O failure.
  static Segment open_active(const std::string& path);

  /// Opens an existing file read-only and maps it. Throws std::runtime_error
  /// on I/O failure (a malformed *header* is the caller's concern — the
  /// bytes are simply exposed).
  static Segment open_frozen(const std::string& path);

  bool valid() const noexcept { return fd_ >= 0; }
  bool active() const noexcept { return active_; }
  std::uint64_t size() const noexcept { return size_; }
  const std::string& path() const noexcept { return path_; }

  /// Frozen (mapped) segments: the whole file. Empty view when unmapped.
  std::string_view mapped() const noexcept {
    return {static_cast<const char*>(map_), map_len_};
  }

  /// Single write() of the whole frame (all-or-nothing against process
  /// death: an O_APPEND write that entered the page cache survives kill -9).
  /// False on I/O error.
  bool append(std::string_view frame);

  /// pread [off, off+len) into out (resized). False on short read or error.
  bool read_at(std::uint64_t off, std::size_t len, std::string& out) const;

  bool sync();  ///< fsync; false on error.

  /// Converts the active segment to frozen-and-mapped in place (compaction
  /// rotation). Throws std::runtime_error if the mmap fails.
  void freeze();

  void close() noexcept;
  /// close() then unlink — compaction retiring a replaced segment.
  void close_and_unlink() noexcept;

 private:
  std::string path_;
  int fd_ = -1;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::uint64_t size_ = 0;
  bool active_ = false;
};

/// fsync on the directory itself — makes renames/creates durable. False on
/// error (non-fatal: data fsync still happened).
bool sync_dir(const std::string& dir);

/// mkdir -p for a single level (parent must exist). False on failure.
bool ensure_dir(const std::string& dir);

}  // namespace ttp::store
