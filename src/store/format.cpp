#include "store/format.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "tt/serialize.hpp"
#include "util/crc32c.hpp"

namespace ttp::store {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

std::uint32_t get_u32(const char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t get_u64(const char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

// key.hi..cost, before the variable-length tree payload.
constexpr std::size_t kBodyFixedBytes = 8 + 8 + 8 + 1 + 8;

}  // namespace

void append_segment_header(std::string& out) {
  out.append(kSegmentMagic, sizeof(kSegmentMagic));
  put_u32(out, kFormatVersion);
  put_u32(out, kEndianMarker);
}

ForeignVersion::ForeignVersion(std::uint32_t v)
    : std::invalid_argument("segment header: unsupported format version " +
                            std::to_string(v) + " (this build reads " +
                            std::to_string(kFormatVersion) + ")"),
      version(v) {}

void check_segment_header(std::string_view file_bytes) {
  if (file_bytes.size() < kSegmentHeaderBytes) {
    throw std::invalid_argument("segment header: file shorter than header");
  }
  if (std::memcmp(file_bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) !=
      0) {
    throw std::invalid_argument("segment header: bad magic");
  }
  const std::uint32_t version = get_u32(file_bytes.data() + 4);
  if (version != kFormatVersion) throw ForeignVersion(version);
  if (get_u32(file_bytes.data() + 8) != kEndianMarker) {
    throw std::invalid_argument("segment header: foreign byte order");
  }
}

void append_record(const Record& rec, std::string& out) {
  std::string body;
  body.reserve(kBodyFixedBytes + rec.tree.nodes().size() * 8);
  put_u64(body, rec.key.hi);
  put_u64(body, rec.key.lo);
  put_u64(body, rec.stamp_s);
  body.push_back(static_cast<char>(rec.kind));
  put_u64(body, std::bit_cast<std::uint64_t>(rec.cost));
  tt::encode_tree_binary(rec.tree, body);
  if (body.size() > kMaxRecordBytes) {
    throw std::invalid_argument("store record exceeds kMaxRecordBytes");
  }
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  put_u32(out, util::crc32c(body.data(), body.size()));
  out.append(body);
}

ParseResult parse_record(std::string_view bytes) noexcept {
  ParseResult res;
  if (bytes.size() < 8) {
    res.status = ParseStatus::kTruncated;
    return res;
  }
  const std::uint32_t len = get_u32(bytes.data());
  const std::uint32_t crc = get_u32(bytes.data() + 4);
  if (len > kMaxRecordBytes || len < kBodyFixedBytes) {
    // The length prefix is not believable; there is no frame to skip past.
    res.status = ParseStatus::kCorrupt;
    res.consumed = 0;
    return res;
  }
  if (bytes.size() - 8 < len) {
    res.status = ParseStatus::kTruncated;
    return res;
  }
  const std::string_view body = bytes.substr(8, len);
  const std::size_t frame = 8 + std::size_t{len};
  if (util::crc32c(body.data(), body.size()) != crc) {
    res.status = ParseStatus::kCorrupt;
    res.consumed = frame;
    return res;
  }
  res.record.key.hi = get_u64(body.data());
  res.record.key.lo = get_u64(body.data() + 8);
  res.record.stamp_s = get_u64(body.data() + 16);
  res.record.kind = static_cast<std::uint8_t>(body[24]);
  res.record.cost =
      std::bit_cast<double>(get_u64(body.data() + 25));
  if (res.record.kind == kRecordProcedure) {
    try {
      res.record.tree = tt::decode_tree_binary(body.substr(kBodyFixedBytes));
    } catch (...) {
      // CRC passed but the payload is malformed (or allocation failed) — a
      // writer bug or a deliberate bad record; corrupt-but-skippable.
      res.status = ParseStatus::kCorrupt;
      res.consumed = frame;
      return res;
    }
  }
  res.status = ParseStatus::kOk;
  res.consumed = frame;
  return res;
}

}  // namespace ttp::store
