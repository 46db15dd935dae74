#include "tt/serialize.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "util/text.hpp"

namespace ttp::tt {

std::string to_text(const Instance& ins) {
  std::string out = "tt ";
  util::append_int(out, ins.k());
  out += "\nweights";
  for (const double w : ins.weights()) {
    out += ' ';
    util::append_double(out, w);  // lossless double round-trip
  }
  out += '\n';
  for (const Action& a : ins.actions()) {
    out += a.is_test ? "test " : "treat ";
    out += a.name;
    out += ' ';
    util::append_mask(out, a.set);
    out += ' ';
    util::append_double(out, a.cost);
    out += '\n';
  }
  return out;
}

namespace {

/// Byte classes of the instance text: the C locale's isspace set (space,
/// \t, \n, \v, \f, \r) separates tokens, and '#' ends a line's content.
enum ByteClass : unsigned char { kTokenByte, kSpaceByte, kCommentByte };

constexpr std::array<ByteClass, 256> kByteClass = [] {
  std::array<ByteClass, 256> table{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[static_cast<unsigned char>(c)] = kSpaceByte;
  }
  table[static_cast<unsigned char>('#')] = kCommentByte;
  return table;
}();

/// Splits one line into whitespace-separated tokens, left to right, up to
/// its first '#'.
class Tokens {
 public:
  explicit Tokens(std::string_view line) noexcept
      : at_(line.data()), end_(line.data() + line.size()) {}

  /// The next token; an empty view once the line is used up.
  std::string_view next() noexcept {
    while (at_ != end_ && class_of(*at_) == kSpaceByte) ++at_;
    if (at_ != end_ && class_of(*at_) == kCommentByte) at_ = end_;
    const char* start = at_;
    while (at_ != end_ && class_of(*at_) == kTokenByte) ++at_;
    return {start, static_cast<std::size_t>(at_ - start)};
  }

 private:
  static ByteClass class_of(char c) noexcept {
    return kByteClass[static_cast<unsigned char>(c)];
  }

  const char* at_;
  const char* end_;
};

[[noreturn]] void fail_line(int lineno, const std::string& what) {
  throw std::invalid_argument("line " + std::to_string(lineno) + ": " + what);
}

std::string quoted(std::string_view tok) {
  return "'" + std::string(tok) + "'";
}

}  // namespace

Instance from_text(std::string_view text) {
  int lineno = 0;
  int k = -1;
  std::vector<double> weights;
  struct Pending {
    bool is_test;
    std::string_view name;
    Mask set;
    double cost;
  };
  std::vector<Pending> pending;
  pending.reserve(64);

  while (!text.empty()) {
    ++lineno;
    const void* nl = std::memchr(text.data(), '\n', text.size());
    const std::size_t len =
        nl == nullptr ? text.size()
                      : static_cast<std::size_t>(static_cast<const char*>(nl) -
                                                 text.data());
    Tokens toks(text.substr(0, len));
    text.remove_prefix(nl == nullptr ? len : len + 1);
    const std::string_view kw = toks.next();
    if (kw.empty()) continue;
    if (kw == "tt") {
      const std::string_view tok = toks.next();
      if (!util::parse_int(tok, k)) {
        fail_line(lineno, tok.empty() ? "expected 'tt <k>'"
                                      : "expected 'tt <k>', got k " +
                                            quoted(tok));
      }
      if (k > 0 && k <= kMaxUniverse) {
        weights.reserve(static_cast<std::size_t>(k));
      }
    } else if (kw == "weights") {
      for (std::string_view tok = toks.next(); !tok.empty();
           tok = toks.next()) {
        double w;
        if (!util::parse_double(tok, w)) {
          fail_line(lineno, "weight " + quoted(tok) + " is not a number");
        }
        weights.push_back(w);
      }
    } else if (kw == "test" || kw == "treat") {
      if (k < 0) fail_line(lineno, "action before 'tt <k>' header");
      Pending p;
      p.is_test = kw == "test";
      p.name = toks.next();
      const std::string_view set_tok = toks.next();
      const std::string_view cost_tok = toks.next();
      if (cost_tok.empty()) fail_line(lineno, "expected '<name> {set} <cost>'");
      if (!util::parse_double(cost_tok, p.cost)) {
        fail_line(lineno, "expected '<name> {set} <cost>', got cost " +
                              quoted(cost_tok));
      }
      try {
        p.set = util::mask_from_string(set_tok, k);
      } catch (const std::invalid_argument& e) {
        fail_line(lineno, e.what());
      }
      pending.push_back(p);
    } else {
      fail_line(lineno, "unknown keyword " + quoted(kw));
    }
    if (const std::string_view extra = toks.next(); !extra.empty()) {
      fail_line(lineno, "unexpected " + quoted(extra) + " at end of line");
    }
  }
  if (k < 0) throw std::invalid_argument("missing 'tt <k>' header");
  if (static_cast<int>(weights.size()) != k) {
    throw std::invalid_argument("expected " + std::to_string(k) +
                                " weights, got " +
                                std::to_string(weights.size()));
  }
  Instance ins(k, std::move(weights));
  ins.reserve_actions(pending.size());
  for (const Pending& p : pending) {
    if (p.is_test) {
      ins.add_test(p.set, p.cost, std::string(p.name));
    } else {
      ins.add_treatment(p.set, p.cost, std::string(p.name));
    }
  }
  ins.check();
  return ins;
}

void save_file(const std::string& path, const Instance& ins) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  os << to_text(ins);
  if (!os) throw std::runtime_error("write failed: " + path);
}

Instance load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open: " + path);
  // The whole file, then the one scanner.
  const std::string text{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  return from_text(text);
}

// ---------------------------------------------------------------------------
// Binary tree codec

namespace {

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Zigzag: small magnitudes (including -1, the codec's "absent arc") stay
/// one byte.
void put_zigzag(std::string& out, std::int64_t v) {
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));
}

/// Bounds-checked reader over untrusted bytes. Every accessor throws
/// std::invalid_argument before touching memory past the span's end.
struct BinReader {
  const unsigned char* p;
  std::size_t left;

  explicit BinReader(std::string_view bytes)
      : p(reinterpret_cast<const unsigned char*>(bytes.data())),
        left(bytes.size()) {}

  [[noreturn]] static void fail(const char* what) {
    throw std::invalid_argument(std::string("binary decode: ") + what);
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (left == 0) fail("truncated varint");
      if (shift >= 64) fail("varint overflows 64 bits");
      const unsigned char byte = *p++;
      --left;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t zigzag() {
    const std::uint64_t v = varint();
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  void expect_done() const {
    if (left != 0) fail("trailing bytes after value");
  }
};

/// Checked narrowing of a decoded count against a cap — BEFORE any
/// allocation sized by it, so a lying length field cannot OOM the decoder.
std::size_t checked_count(std::uint64_t v, std::uint64_t cap,
                          const char* what) {
  if (v > cap) {
    BinReader::fail(what);
  }
  return static_cast<std::size_t>(v);
}

int checked_index(std::int64_t v, std::int64_t n, const char* what) {
  // Valid range is [-1, n): -1 encodes "absent" everywhere the tree uses it.
  if (v < -1 || v >= n) BinReader::fail(what);
  return static_cast<int>(v);
}

}  // namespace

void encode_tree_binary(const Tree& tree, std::string& out) {
  const auto& nodes = tree.nodes();
  if (nodes.size() > kMaxBinaryNodes) {
    throw std::invalid_argument("encode_tree_binary: too many nodes");
  }
  put_varint(out, nodes.size());
  put_zigzag(out, tree.root());
  for (const TreeNode& n : nodes) {
    put_varint(out, n.state);
    put_zigzag(out, n.action);
    put_zigzag(out, n.yes);
    put_zigzag(out, n.no);
  }
}

Tree decode_tree_binary(std::string_view bytes) {
  BinReader r(bytes);
  const std::size_t count =
      checked_count(r.varint(), kMaxBinaryNodes, "node count past cap");
  const std::int64_t n = static_cast<std::int64_t>(count);
  const int root = checked_index(r.zigzag(), n, "root outside node array");
  std::vector<TreeNode> nodes(count);
  for (TreeNode& node : nodes) {
    const std::uint64_t state = r.varint();
    if (state > 0xffffffffull) BinReader::fail("state mask past 32 bits");
    node.state = static_cast<Mask>(state);
    // Actions index an instance the codec never sees; cap at the varint's
    // value range and let the consumer (tree walk against its instance)
    // reject out-of-range actions.
    const std::int64_t action = r.zigzag();
    if (action < -1 || action > static_cast<std::int64_t>(kMaxBinaryActions)) {
      BinReader::fail("action index out of range");
    }
    node.action = static_cast<int>(action);
    node.yes = checked_index(r.zigzag(), n, "yes arc outside node array");
    node.no = checked_index(r.zigzag(), n, "no arc outside node array");
  }
  r.expect_done();
  if (count == 0) return Tree{};
  return Tree(std::move(nodes), root);
}

}  // namespace ttp::tt
