#include "store/log.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "store/format.hpp"

namespace ttp::store {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::string segment_filename(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "seg-%020llu.ttps",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool parse_segment_seq(std::string_view filename, std::uint64_t& seq) {
  constexpr std::string_view prefix = "seg-";
  constexpr std::string_view suffix = ".ttps";
  if (filename.size() != prefix.size() + 20 + suffix.size()) return false;
  if (filename.substr(0, prefix.size()) != prefix) return false;
  if (filename.substr(prefix.size() + 20) != suffix) return false;
  seq = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const char c = filename[prefix.size() + i];
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

Segment& Segment::operator=(Segment&& o) noexcept {
  if (this != &o) {
    close();
    path_ = std::move(o.path_);
    fd_ = std::exchange(o.fd_, -1);
    map_ = std::exchange(o.map_, nullptr);
    map_len_ = std::exchange(o.map_len_, 0);
    size_ = std::exchange(o.size_, 0);
    active_ = std::exchange(o.active_, false);
  }
  return *this;
}

Segment::~Segment() { close(); }

Segment Segment::open_active(const std::string& path) {
  Segment s;
  s.path_ = path;
  s.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (s.fd_ < 0) throw_errno("open", path);
  struct stat st{};
  if (::fstat(s.fd_, &st) != 0) throw_errno("fstat", path);
  s.size_ = static_cast<std::uint64_t>(st.st_size);
  s.active_ = true;
  if (s.size_ == 0) {
    std::string header;
    append_segment_header(header);
    if (!s.append(header)) throw_errno("write header", path);
  }
  return s;
}

Segment Segment::open_frozen(const std::string& path) {
  Segment s;
  s.path_ = path;
  s.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (s.fd_ < 0) throw_errno("open", path);
  struct stat st{};
  if (::fstat(s.fd_, &st) != 0) throw_errno("fstat", path);
  s.size_ = static_cast<std::uint64_t>(st.st_size);
  s.active_ = false;
  if (s.size_ > 0) {
    void* m = ::mmap(nullptr, static_cast<std::size_t>(s.size_), PROT_READ,
                     MAP_SHARED, s.fd_, 0);
    if (m == MAP_FAILED) throw_errno("mmap", path);
    s.map_ = m;
    s.map_len_ = static_cast<std::size_t>(s.size_);
  }
  return s;
}

bool Segment::append(std::string_view frame) {
  const char* p = frame.data();
  std::size_t left = frame.size();
  // O_APPEND write()s are atomic w.r.t. offset; loop only for EINTR/short
  // writes (regular files rarely short-write, but be correct).
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  size_ += frame.size();
  return true;
}

bool Segment::read_at(std::uint64_t off, std::size_t len,
                      std::string& out) const {
  out.resize(len);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd_, out.data() + got, len - got,
                              static_cast<off_t>(off + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // short file
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool Segment::sync() { return ::fsync(fd_) == 0; }

void Segment::freeze() {
  if (!active_) return;
  if (size_ > 0 && map_ == nullptr) {
    void* m = ::mmap(nullptr, static_cast<std::size_t>(size_), PROT_READ,
                     MAP_SHARED, fd_, 0);
    if (m == MAP_FAILED) throw_errno("mmap", path_);
    map_ = m;
    map_len_ = static_cast<std::size_t>(size_);
  }
  // Only after the mapping exists — a throw above leaves the segment active
  // and usable, so a failed compaction rotation aborts cleanly.
  active_ = false;
}

void Segment::close() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    map_len_ = 0;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Segment::close_and_unlink() noexcept {
  const std::string path = path_;
  close();
  if (!path.empty()) ::unlink(path.c_str());
}

bool sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return true;
  if (errno != EEXIST) return false;
  struct stat st{};
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace ttp::store
