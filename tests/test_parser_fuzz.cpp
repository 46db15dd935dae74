// Robustness fuzzing of the two text parsers (BVM assembler, TT instance
// serializer): random garbage must produce exceptions, never crashes or
// silent acceptance of nonsense; random round-trip inputs must re-parse.
//
// The instance scanner (tt::from_text) is also checked differentially
// against the istream parser it replaced, kept below unchanged as the
// oracle, and the to_chars reply appenders against the ostream formatter
// they replaced.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bvm/assembler.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "tt/generator.hpp"
#include "tt/serialize.hpp"
#include "tt/solver_sequential.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ttp {
namespace {

// --- the oracles --------------------------------------------------------------

/// The istream instance parser, as the serving path ran it before the
/// forward scanner: it reads each number as far as it can and ignores what
/// follows on the line.
tt::Instance stream_read_text(std::istream& is) {
  using tt::Instance;
  using util::Mask;
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

tt::Instance stream_from_text(const std::string& text) {
  std::istringstream is(text);
  return stream_read_text(is);
}

/// The ostream SOLVE reply formatter the wire ran before the appenders.
std::string stream_reply(const svc::Response& res) {
  const auto stream_mask = [](util::Mask m) {
    std::string s = "{";
    bool first = true;
    for (int b = 0; b < 32; ++b) {
      if (util::has_bit(m, b)) {
        if (!first) s += ',';
        s += std::to_string(b);
        first = false;
      }
    }
    return s + '}';
  };
  std::ostringstream os;
  os.precision(17);
  os << "OK cache=" << svc::cache_outcome_name(res.cache)
     << " cost=" << res.cost << " nodes=" << res.tree.size()
     << " trace=" << obs::trace_hex(res.trace) << '\n';
  os << "tree " << res.tree.root() << '\n';
  for (int i = 0; i < res.tree.size(); ++i) {
    const tt::TreeNode& n = res.tree.node(i);
    os << "node " << i << ' ' << n.action << ' ' << n.yes << ' ' << n.no
       << ' ' << stream_mask(n.state) << '\n';
  }
  os << "END\n";
  return os.str();
}

// --- differential harness -----------------------------------------------------

/// Same k, test count, names, sets and action order, with weights and costs
/// compared bitwise.
bool same_instance(const tt::Instance& a, const tt::Instance& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (a.k() != b.k() || a.num_tests() != b.num_tests() ||
      a.num_actions() != b.num_actions()) {
    return false;
  }
  for (int j = 0; j < a.k(); ++j) {
    if (bits(a.weight(j)) != bits(b.weight(j))) return false;
  }
  for (int i = 0; i < a.num_actions(); ++i) {
    const tt::Action& x = a.action(i);
    const tt::Action& y = b.action(i);
    if (x.name != y.name || x.set != y.set || x.is_test != y.is_test ||
        bits(x.cost) != bits(y.cost)) {
      return false;
    }
  }
  return true;
}

/// How the stream reads one whole token as a T.
template <typename T>
struct StreamToken {
  bool read = false;   ///< It read a number off the token's front.
  bool whole = false;  ///< ... and nothing of the token was left.
  T value{};
};

template <typename T>
StreamToken<T> stream_token(const std::string& tok) {
  std::istringstream is(tok);
  StreamToken<T> r;
  r.read = static_cast<bool>(is >> r.value);
  r.whole = r.read && is.peek() == std::char_traits<char>::eof();
  return r;
}

/// A token the stream read as a double, but not as the number it spells:
/// only in part ("0.5x", "1.5junk", "0x1p3"), or as 0 from nonzero digits
/// ("1e-400").
bool partial_double(const std::string& tok) {
  const StreamToken<double> r = stream_token<double>(tok);
  if (!r.read) return false;
  if (!r.whole) return true;
  const std::string mantissa = tok.substr(0, tok.find_first_of("eE"));
  return r.value == 0.0 &&
         mantissa.find_first_of("123456789") != std::string::npos;
}

/// True when `text` has one of the inputs the scanner rejects on purpose,
/// where the stream parser read a changed instance: a number the stream
/// read only in part or as 0 from nonzero digits, k read in part
/// ("tt 2.5"), or tokens the stream left unread at the end of a line
/// (after k, after a cost, or after the last weight it could read).
bool strictness_case(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line.substr(0, line.find('#')));
    std::vector<std::string> toks;
    for (std::string t; ls >> t;) toks.push_back(t);
    if (toks.empty()) continue;
    if (toks[0] == "tt") {
      if (toks.size() > 2) return true;
      if (toks.size() == 2) {
        const StreamToken<int> k = stream_token<int>(toks[1]);
        if (k.read && !k.whole) return true;
      }
    } else if (toks[0] == "weights") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        // A token the stream cannot read ends its weights: the rest trails.
        if (!stream_token<double>(toks[i]).read) return true;
        if (partial_double(toks[i])) return true;
      }
    } else if (toks[0] == "test" || toks[0] == "treat") {
      if (toks.size() > 4) return true;
      if (toks.size() == 4 && partial_double(toks[3])) return true;
    }
  }
  return false;
}

/// What the two parsers made of the inputs fed to one DiffStats.
struct DiffStats {
  int inputs = 0;
  int both_accept = 0;
  int both_reject = 0;
  int only_stream_accepts = 0;  ///< All of them strictness cases.
};

/// Runs both parsers on `text`. Whenever the scanner accepts, the stream
/// parser must accept an equal instance; where only the stream parser
/// accepts, the input must be one of the strictness cases.
void diff_parse(const std::string& text, DiffStats& stats) {
  ++stats.inputs;
  std::optional<tt::Instance> scanned, streamed;
  std::string scan_error;
  try {
    scanned.emplace(tt::from_text(text));
  } catch (const std::invalid_argument& e) {
    scan_error = e.what();
  }
  try {
    streamed.emplace(stream_from_text(text));
  } catch (const std::invalid_argument&) {
  }
  if (scanned.has_value()) {
    ASSERT_TRUE(streamed.has_value()) << "only the scanner accepts:\n" << text;
    ASSERT_TRUE(same_instance(*scanned, *streamed)) << "instances differ:\n"
                                                    << text;
    ++stats.both_accept;
  } else if (streamed.has_value()) {
    ASSERT_TRUE(strictness_case(text))
        << "only the stream parser accepts, and not for a strictness case ("
        << scan_error << "):\n"
        << text;
    ++stats.only_stream_accepts;
  } else {
    ++stats.both_reject;
  }
}

/// The five domain generators of PAPER.md §1 plus the random family.
std::vector<std::function<tt::Instance(int, util::Rng&)>> families() {
  return {
      [](int k, util::Rng& rng) { return tt::medical_instance(k, k, rng); },
      [](int k, util::Rng& rng) { return tt::machine_fault_instance(k, rng); },
      [](int k, util::Rng& rng) { return tt::biology_key_instance(k, rng); },
      [](int k, util::Rng& rng) { return tt::lab_analysis_instance(k, rng); },
      [](int k, util::Rng& rng) { return tt::logistics_instance(k, rng); },
      [](int k, util::Rng& rng) {
        return tt::random_instance(k, tt::RandomOptions{}, rng);
      },
  };
}

/// Another spelling of the same problem, as perfbench's warm set writes
/// them: tests and treatments each shuffled, fresh names, weights scaled by
/// 2^j.
tt::Instance respell(const tt::Instance& ins, util::Rng& rng) {
  std::vector<int> tests, treats;
  for (int i = 0; i < ins.num_actions(); ++i) {
    (ins.action(i).is_test ? tests : treats).push_back(i);
  }
  rng.shuffle(tests);
  rng.shuffle(treats);
  std::vector<double> w = ins.weights();
  const int j = static_cast<int>(rng.uniform(0, 6)) - 3;
  for (double& x : w) x = std::ldexp(x, j);
  tt::Instance out(ins.k(), std::move(w));
  for (const int i : tests) {
    out.add_test(ins.action(i).set, ins.action(i).cost,
                 "t" + std::to_string(rng.next_u64() & 0xffffff));
  }
  for (const int i : treats) {
    out.add_treatment(ins.action(i).set, ins.action(i).cost,
                      "r" + std::to_string(rng.next_u64() & 0xffffff));
  }
  return out;
}

/// Knobs of one rewrite of to_text output: both parsers must read every
/// combination the same.
struct Layout {
  bool comments = false;  ///< A comment after every line and between lines.
  bool blank_lines = false;
  bool crlf = false;
  bool tabs = false;       ///< Tabs and runs of blanks between tokens.
  bool plus = false;       ///< A '+' before every number.
  bool exponent = false;   ///< Every number in %.17e form.
};

std::string relayout(const std::string& text, const Layout& l) {
  std::string out;
  std::istringstream is(text);
  std::string line;
  const std::string nl = l.crlf ? "\r\n" : "\n";
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::vector<std::string> toks;
    for (std::string t; ls >> t;) toks.push_back(t);
    // Numbers: k, every weight, each action's cost (the last token).
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const bool number = toks[0] == "weights" || i == toks.size() - 1;
      if (!number) continue;
      if (l.exponent && toks[0] != "tt") {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17e", std::stod(toks[i]));
        toks[i] = buf;
      }
      if (l.plus) toks[i] = "+" + toks[i];
    }
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (i != 0) out += l.tabs ? (i % 2 != 0 ? "\t" : " \t  ") : " ";
      out += toks[i];
    }
    if (l.comments) out += " # note";
    out += nl;
    if (l.blank_lines) out += l.tabs ? "\t" + nl : nl;
    if (l.comments) out += "# between lines" + nl;
  }
  return out;
}

Layout layout_of(unsigned bits) {
  Layout l;
  l.comments = (bits & 1u) != 0;
  l.blank_lines = (bits & 2u) != 0;
  l.crlf = (bits & 4u) != 0;
  l.tabs = (bits & 8u) != 0;
  l.plus = (bits & 16u) != 0;
  l.exponent = (bits & 32u) != 0;
  return l;
}

TEST(ParserFuzz, ScannerMatchesStreamParserOnEveryFamilyAndLayout) {
  util::Rng rng(0x5CA7);
  DiffStats stats;
  int generated = 0;
  for (const auto& family : families()) {
    for (int k = 1; k <= tt::kMaxUniverse; ++k) {
      std::optional<tt::Instance> ins;
      try {
        ins.emplace(family(k, rng));
      } catch (const std::invalid_argument&) {
        continue;  // a family with a floor on k
      }
      ++generated;
      const std::string text = tt::to_text(*ins);
      diff_parse(text, stats);
      ASSERT_TRUE(same_instance(tt::from_text(text), *ins)) << text;
      const std::string respelled = tt::to_text(respell(*ins, rng));
      for (unsigned bits = 0; bits < 64; ++bits) {
        diff_parse(relayout(k % 2 == 0 ? text : respelled, layout_of(bits)),
                   stats);
      }
    }
  }
  EXPECT_GE(generated, 6 * 20);
  // Nothing here is a strictness case: every input parses, the same way.
  EXPECT_EQ(stats.both_accept, stats.inputs);
}

/// A perfbench-style warm frame body: a domain problem at k = 8..12,
/// respelled.
std::string warm_frame(util::Rng& rng) {
  const auto fams = families();
  const int k = 8 + static_cast<int>(rng.uniform(0, 4));
  const auto& family = fams[rng.uniform(0, 4)];
  return tt::to_text(respell(family(k, rng), rng));
}

TEST(ParserFuzz, ScannerMatchesStreamParserUnderMutation) {
  util::Rng rng(0xD1FF);
  // Bytes that turn numbers into partial, hex, inf/nan or out-of-range
  // spellings, split or join tokens and lines, or open comments.
  static const char kBytes[] = "0123456789.eE+-xXpinfaI \t\r\n#{},junk";
  std::vector<std::string> bases;
  for (int i = 0; i < 40; ++i) {
    const std::string text = warm_frame(rng);
    bases.push_back(i % 4 == 0 ? relayout(text, layout_of(static_cast<unsigned>(i)))
                               : text);
  }
  DiffStats stats;
  constexpr int kMutations = 24000;
  for (int m = 0; m < kMutations; ++m) {
    std::string text = bases[static_cast<std::size_t>(m) % bases.size()];
    for (int edit = 0; edit < 2; ++edit) {
      const std::size_t pos = rng.uniform(0, text.size() - 1);
      const char c = kBytes[rng.uniform(0, sizeof(kBytes) - 2)];
      switch (rng.uniform(0, 2)) {
        case 0:
          text[pos] = c;
          break;
        case 1:
          text.insert(pos, 1, c);
          break;
        default:
          text.erase(pos, 1);
          break;
      }
    }
    diff_parse(text, stats);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(stats.inputs, kMutations);
  RecordProperty("both_accept", stats.both_accept);
  RecordProperty("both_reject", stats.both_reject);
  RecordProperty("only_stream_accepts", stats.only_stream_accepts);
  // Both outcomes and the strictness gap all occur, so the comparison is
  // not vacuous.
  EXPECT_GT(stats.both_accept, kMutations / 10);
  EXPECT_GT(stats.both_reject, kMutations / 10);
  EXPECT_GT(stats.only_stream_accepts, kMutations / 100);
}

TEST(ParserFuzz, SolveRepliesMatchStreamFormatterByteForByte) {
  util::Rng rng(0xB17E);
  const std::vector<double> costs = {
      0.0,    -0.0,    4e-320, 5e-324, 1e308,   1.7976931348623157e308,
      1.0,    3.0,     100.0,  1e16,   1e17,    123456789012.0,
      0.1,    1.0 / 3, 1e-5,   1e-4,   2.5e-7,  6.02214076e23};
  int replies = 0;
  for (const auto& family : families()) {
    for (const int k : {1, 2, 5, 8, 11}) {
      std::optional<tt::Instance> ins;
      try {
        ins.emplace(family(k, rng));
      } catch (const std::invalid_argument&) {
        continue;
      }
      const tt::SolveResult solved = tt::SequentialSolver().solve(*ins);
      svc::Response res;
      res.status = svc::Status::kOk;
      res.tree = solved.tree;
      res.trace = rng.next_u64();
      std::vector<double> scaled = costs;
      for (int j = -3; j <= 3; ++j) scaled.push_back(std::ldexp(solved.cost, j));
      for (const double cost : scaled) {
        res.cost = cost;
        res.cache = static_cast<svc::CacheOutcome>(replies % 5);
        std::string reply = "kept ";  // appends, never overwrites
        svc::append_solve_reply(reply, res);
        ASSERT_EQ(reply, "kept " + stream_reply(res)) << cost;
        ++replies;
      }
      EXPECT_EQ(svc::tree_to_wire(res.tree) + "END\n",
                stream_reply(res).substr(stream_reply(res).find('\n') + 1));
    }
  }
  EXPECT_GE(replies, 6 * 4 * 25);
  // An empty tree, as a reply carries none only in tests, still matches.
  svc::Response empty;
  empty.status = svc::Status::kOk;
  std::string reply;
  svc::append_solve_reply(reply, empty);
  EXPECT_EQ(reply, stream_reply(empty));
}

std::string random_garbage(util::Rng& rng, std::size_t len) {
  static const char alphabet[] =
      "ABR[]{}(),=.:# 0123456789xfgIESPLN\n\ttweights";
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s += alphabet[rng.uniform(0, sizeof(alphabet) - 2)];
  }
  return s;
}

TEST(ParserFuzz, AssemblerNeverCrashesOnGarbage) {
  util::Rng rng(0xA55);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string text = random_garbage(rng, rng.uniform(1, 60));
    try {
      (void)bvm::assemble(text);
      ++accepted;  // blank/comment-only inputs legitimately parse
    } catch (const std::invalid_argument&) {
      // expected for garbage
    } catch (const std::out_of_range&) {
      // stoull overflow on silly numbers — acceptable rejection
    }
  }
  // Almost everything must be rejected; comment/blank-only lines pass.
  EXPECT_LT(accepted, 600);
}

TEST(ParserFuzz, SerializerNeverCrashesOnGarbage) {
  util::Rng rng(0xB66);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string text = random_garbage(rng, rng.uniform(1, 80));
    try {
      (void)tt::from_text(text);
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
  SUCCEED();
}

TEST(ParserFuzz, MutatedValidInstancesEitherParseOrThrow) {
  util::Rng rng(0xC77);
  const tt::Instance base = tt::fig1_example();
  const std::string good = tt::to_text(base);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = good;
    // Flip a few characters.
    for (int f = 0; f < 3; ++f) {
      const std::size_t pos = rng.uniform(0, text.size() - 1);
      text[pos] = static_cast<char>('0' + rng.uniform(0, 74));
    }
    try {
      const tt::Instance ins = tt::from_text(text);
      ins.check();  // anything accepted must be structurally sane
    } catch (const std::exception&) {
      // rejection is fine
    }
  }
  SUCCEED();
}

TEST(ParserFuzz, AssemblerRoundTripUnderRandomPrograms) {
  util::Rng rng(0xD88);
  for (int trial = 0; trial < 500; ++trial) {
    bvm::Instr in;
    const auto droll = rng.uniform(0, 9);
    in.dest = droll == 0   ? bvm::Reg::MakeA()
              : droll == 1 ? bvm::Reg::MakeE()
                           : bvm::Reg::R(static_cast<int>(rng.uniform(0, 255)));
    in.f = static_cast<std::uint8_t>(rng.uniform(0, 255));
    in.g = static_cast<std::uint8_t>(rng.uniform(0, 255));
    in.src_f = rng.bernoulli(0.3)
                   ? bvm::Reg::MakeA()
                   : bvm::Reg::R(static_cast<int>(rng.uniform(0, 255)));
    in.src_d = rng.bernoulli(0.3)
                   ? bvm::Reg::MakeA()
                   : bvm::Reg::R(static_cast<int>(rng.uniform(0, 255)));
    const bvm::Nbr nbrs[] = {bvm::Nbr::None, bvm::Nbr::S,  bvm::Nbr::P,
                             bvm::Nbr::L,    bvm::Nbr::XS, bvm::Nbr::XP,
                             bvm::Nbr::I};
    in.d_nbr = nbrs[rng.uniform(0, 6)];
    const auto aroll = rng.uniform(0, 2);
    if (aroll) {
      in.act = aroll == 1 ? bvm::Act::If : bvm::Act::Nf;
      in.act_set = rng.next_u64() & 0xFFFF;
    }
    const bvm::Instr back = bvm::parse_instr(in.to_string());
    ASSERT_EQ(back.to_string(), in.to_string());
  }
}

}  // namespace
}  // namespace ttp
