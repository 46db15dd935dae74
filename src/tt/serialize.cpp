#include "tt/serialize.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ttp::tt {

void write_text(std::ostream& os, const Instance& ins) {
  os.precision(17);  // lossless double round-trip
  os << "tt " << ins.k() << "\n";
  os << "weights";
  for (int j = 0; j < ins.k(); ++j) os << ' ' << ins.weight(j);
  os << "\n";
  for (const Action& a : ins.actions()) {
    os << (a.is_test ? "test " : "treat ") << a.name << ' '
       << util::mask_to_string(a.set) << ' ' << a.cost << "\n";
  }
}

std::string to_text(const Instance& ins) {
  std::ostringstream os;
  write_text(os, ins);
  return os.str();
}

Instance read_text(std::istream& is) {
  std::string line;
  int lineno = 0;
  int k = -1;
  std::vector<double> weights;
  struct Pending {
    bool is_test;
    std::string name;
    Mask set;
    double cost;
  };
  std::vector<Pending> pending;

  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw)) continue;
    if (kw == "tt") {
      if (!(ls >> k)) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": expected 'tt <k>'");
      }
    } else if (kw == "weights") {
      double w;
      while (ls >> w) weights.push_back(w);
    } else if (kw == "test" || kw == "treat") {
      if (k < 0) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": action before 'tt <k>' header");
      }
      Pending p;
      p.is_test = kw == "test";
      std::string set_tok;
      if (!(ls >> p.name >> set_tok >> p.cost)) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": expected '<name> {set} <cost>'");
      }
      try {
        p.set = util::mask_from_string(set_tok, k);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("line " + std::to_string(lineno) + ": " +
                                    e.what());
      }
      pending.push_back(std::move(p));
    } else {
      throw std::invalid_argument("line " + std::to_string(lineno) +
                                  ": unknown keyword '" + kw + "'");
    }
  }
  if (k < 0) throw std::invalid_argument("missing 'tt <k>' header");
  if (static_cast<int>(weights.size()) != k) {
    throw std::invalid_argument("expected " + std::to_string(k) +
                                " weights, got " +
                                std::to_string(weights.size()));
  }
  Instance ins(k, std::move(weights));
  for (const Pending& p : pending) {
    if (p.is_test) {
      ins.add_test(p.set, p.cost, p.name);
    } else {
      ins.add_treatment(p.set, p.cost, p.name);
    }
  }
  ins.check();
  return ins;
}

Instance from_text(const std::string& text) {
  std::istringstream is(text);
  return read_text(is);
}

void save_file(const std::string& path, const Instance& ins) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_text(os, ins);
  if (!os) throw std::runtime_error("write failed: " + path);
}

Instance load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open: " + path);
  return read_text(is);
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
