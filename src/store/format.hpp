// On-disk record format for the durable procedure store (docs/store.md).
//
// A segment file is a 12-byte header followed by back-to-back records:
//
//   header:  magic "TTPS" | format version u32 | endian marker u32
//   record:  body_len u32 | crc32c(body) u32 | body
//   body:    key.hi u64 | key.lo u64 | stamp_s u64 | kind u8 |
//            cost f64 bits | encode_tree_binary(tree)
//
// All fixed-width fields are little-endian; the header's endian marker lets
// a reader reject a segment written with the other byte order outright
// instead of mis-parsing it. The CRC covers the body only (a corrupt length
// prefix is detected by the sanity cap and by the CRC of whatever it frames).
//
// This layer is pure bytes<->structs; segment files, mmap, and fsync policy
// live in store/log.hpp, and the replay/index logic in store/store.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "tt/tree.hpp"

namespace ttp::store {

/// 128-bit canonical instance key. Mirrors svc::CanonKey bit-for-bit but is
/// redeclared here so the store library sits below svc in the dependency
/// graph (svc converts trivially at the call boundary).
struct StoreKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const StoreKey& a, const StoreKey& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

struct StoreKeyHash {
  std::size_t operator()(const StoreKey& k) const noexcept {
    // hi and lo are already uniform hash output; fold with a odd multiplier
    // so (a,b) and (b,a) differ.
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ull));
  }
};

inline constexpr char kSegmentMagic[4] = {'T', 'T', 'P', 'S'};
/// 2: keys are hash128 of svc/canon's canonical fields. Version 1 keys
/// hashed the canonical instance text, so a version-1 segment is refused at
/// replay (counted corrupt, nothing indexed) rather than served under keys
/// that no request computes any more.
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kEndianMarker = 0x01020304u;
inline constexpr std::size_t kSegmentHeaderBytes = 12;

/// Sanity cap on a record body; a length prefix above this is treated as
/// scribbled bytes (unscannable), not as an instruction to skip 4 GiB.
inline constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

/// Record kinds (the `kind` body byte). Unknown kinds are skipped as
/// opaque-but-valid records so old readers tolerate new writers.
inline constexpr std::uint8_t kRecordProcedure = 1;

struct Record {
  StoreKey key;
  std::uint64_t stamp_s = 0;  ///< Wall-clock seconds at append (TTL basis).
  std::uint8_t kind = kRecordProcedure;
  double cost = 0.0;          ///< Canonical expected cost.
  tt::Tree tree;              ///< Empty for non-procedure kinds.
};

/// Appends the 12-byte segment header to `out`.
void append_segment_header(std::string& out);

/// check_segment_header's verdict on a segment whose header is intact but
/// names another format version: an old (or newer) store, not a damaged
/// one.
struct ForeignVersion : std::invalid_argument {
  explicit ForeignVersion(std::uint32_t v);
  std::uint32_t version;
};

/// Validates a segment header; throws std::invalid_argument naming the
/// defect (short, bad magic, foreign byte order), or ForeignVersion.
void check_segment_header(std::string_view file_bytes);

/// Appends one framed record (length, CRC, body) to `out`.
void append_record(const Record& rec, std::string& out);

enum class ParseStatus {
  kOk,         ///< `record` is valid; advance by `consumed`.
  kTruncated,  ///< The frame extends past the end of the span (torn tail).
  kCorrupt,    ///< CRC/decode failure. consumed > 0: skip and resync at the
               ///< next frame. consumed == 0: the length prefix itself is
               ///< garbage — the rest of the span is unscannable.
};

struct ParseResult {
  ParseStatus status = ParseStatus::kCorrupt;
  std::size_t consumed = 0;
  Record record;
};

/// Parses the record at the start of `bytes` (a suffix of a segment, after
/// the header). Never throws and never reads past `bytes`.
ParseResult parse_record(std::string_view bytes) noexcept;

}  // namespace ttp::store
