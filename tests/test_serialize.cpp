// Instance text serialization: round-trips, error reporting, file I/O, and
// DOT export structure.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "tt/generator.hpp"
#include "tt/serialize.hpp"
#include "tt/solver_sequential.hpp"
#include "util/rng.hpp"

namespace ttp::tt {
namespace {

TEST(Serialize, RoundTripPreservesEverything) {
  util::Rng rng(9);
  for (int seed = 0; seed < 10; ++seed) {
    RandomOptions opt;
    opt.num_tests = 3;
    opt.num_treatments = 4;
    const Instance a = random_instance(5, opt, rng);
    const Instance b = from_text(to_text(a));
    ASSERT_EQ(a.k(), b.k());
    ASSERT_EQ(a.num_actions(), b.num_actions());
    ASSERT_EQ(a.num_tests(), b.num_tests());
    for (int j = 0; j < a.k(); ++j) {
      EXPECT_EQ(a.weight(j), b.weight(j)) << j;  // bitwise: precision 17
    }
    for (int i = 0; i < a.num_actions(); ++i) {
      EXPECT_EQ(a.action(i).set, b.action(i).set);
      EXPECT_EQ(a.action(i).cost, b.action(i).cost);
      EXPECT_EQ(a.action(i).is_test, b.action(i).is_test);
      EXPECT_EQ(a.action(i).name, b.action(i).name);
    }
    // Same optimum, of course.
    EXPECT_EQ(SequentialSolver().solve(a).cost,
              SequentialSolver().solve(b).cost);
  }
}

// Structural equality, field by field (names included).
void expect_same_instance(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.k(), b.k());
  ASSERT_EQ(a.num_actions(), b.num_actions());
  ASSERT_EQ(a.num_tests(), b.num_tests());
  for (int j = 0; j < a.k(); ++j) EXPECT_EQ(a.weight(j), b.weight(j)) << j;
  for (int i = 0; i < a.num_actions(); ++i) {
    EXPECT_EQ(a.action(i).set, b.action(i).set) << i;
    EXPECT_EQ(a.action(i).cost, b.action(i).cost) << i;
    EXPECT_EQ(a.action(i).is_test, b.action(i).is_test) << i;
    EXPECT_EQ(a.action(i).name, b.action(i).name) << i;
  }
}

TEST(Serialize, PropertyRoundTripRandomizedWithHostileShapes) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    // k = 1 (single-object universe) is the degenerate edge every few
    // trials; otherwise 2..8.
    const int k = trial % 5 == 0 ? 1 : 2 + static_cast<int>(rng.next_u64() % 7);
    RandomOptions opt;
    opt.num_tests = 1 + static_cast<int>(rng.next_u64() % 4);
    opt.num_treatments = 2 + static_cast<int>(rng.next_u64() % 4);
    Instance a = random_instance(k, opt, rng);
    // Duplicate-subset actions (same set, different cost/name) must survive
    // the trip as distinct actions in order.
    const Action& dup = a.action(0);
    if (dup.is_test) {
      a.add_test(dup.set, dup.cost + 0.25, "dup_" + dup.name);
    } else {
      a.add_treatment(dup.set, dup.cost + 0.25, "dup_" + dup.name);
    }

    const std::string text = to_text(a);
    expect_same_instance(a, from_text(text));

    // Re-parse with comment lines and blank lines interleaved between every
    // payload line: comments are whitespace, not content.
    std::string commented = "# leading comment\n";
    for (char c : text) {
      commented += c;
      if (c == '\n') commented += "\n# interleaved comment\n";
    }
    expect_same_instance(a, from_text(commented));
  }
}

TEST(Serialize, ParsesCommentsAndWhitespace) {
  const Instance ins = from_text(R"(
# a comment
tt 2
weights 1.0 2.0   # trailing comment
test  probe {0} 0.5
treat fix   {0,1} 1.5
)");
  EXPECT_EQ(ins.k(), 2);
  EXPECT_EQ(ins.num_tests(), 1);
  EXPECT_EQ(ins.action(1).set, 0b11u);
}

TEST(Serialize, EmptySetAllowed) {
  const Instance ins = from_text("tt 2\nweights 1 1\ntreat all {0,1} 1\n");
  EXPECT_EQ(ins.num_actions(), 1);
}

TEST(Serialize, ErrorsCarryLineNumbers) {
  auto expect_error = [](const std::string& text, const std::string& needle) {
    try {
      (void)from_text(text);
      FAIL() << "expected failure for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("weights 1\n", "missing 'tt");
  expect_error("tt 2\nweights 1\n", "expected 2 weights");
  expect_error("tt 2\nweights 1 1\nbogus x {0} 1\n", "unknown keyword");
  expect_error("tt 2\nweights 1 1\ntest t (0) 1\n", "expected {a,b,...}");
  expect_error("tt 2\nweights 1 1\ntest t {5} 1\n", "outside universe");
  // The whole element must be a decimal: "{1x}" is not the set {1}.
  expect_error("tt 2\nweights 1 1\ntest t {1x} 1\n", "not a decimal");
  expect_error("treat t {0} 1\n", "before 'tt");
}

// The stream parser read each number as far as it could and ignored what
// followed, so every input below used to parse into a silently changed
// instance. Each is now a line-numbered error.
TEST(Serialize, RejectsPartialNumbersAndTrailingTokens) {
  const std::string head = "tt 2\nweights 0.5 0.5\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"tt 2\nweights 0.5 0.5x\ntreat b {0,1} 1\n", "line 2: weight '0.5x'"},
      {head + "treat b {0,1} 1.5junk\n", "line 3: expected '<name> {set} <cost>', got cost '1.5junk'"},
      {head + "treat b {0,1} 0x1p3\n", "line 3: expected '<name> {set} <cost>', got cost '0x1p3'"},
      {head + "treat b {0,1} 1e-400\n", "line 3: expected '<name> {set} <cost>', got cost '1e-400'"},
      {head + "treat b {0,1} 1.0 extra\n", "line 3: unexpected 'extra' at end of line"},
      {"tt 2.5\nweights 0.5 0.5\ntreat b {0,1} 1\n", "line 1: expected 'tt <k>', got k '2.5'"},
      {"tt 2 3\nweights 0.5 0.5\ntreat b {0,1} 1\n", "line 1: unexpected '3'"},
      {"tt 2\nweights 1 1 nan\ntreat b {0,1} 1\n", "line 2: weight 'nan'"},
      // from_chars alone would take these; an inf cost would even pass
      // Instance::check(), which only tests !(cost >= 0).
      {head + "treat b {0,1} inf\n", "line 3: expected '<name> {set} <cost>'"},
      {head + "treat b {0,1} +infinity\n", "line 3: expected '<name> {set} <cost>'"},
      {head + "treat b {0,1} nan\n", "line 3: expected '<name> {set} <cost>'"},
      {head + "treat b {0,1} 1e400\n", "line 3: expected '<name> {set} <cost>'"},
      {head + "treat b {0,1} +-1\n", "line 3: expected '<name> {set} <cost>'"},
  };
  for (const auto& [text, needle] : cases) {
    try {
      (void)from_text(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what() << "\n  for: " << text;
    }
  }
}

// Everything the stream parser rightly accepted still parses, to the same
// bits: a leading '+', exponents, ".5", subnormals, CRLF, tabs, comments.
TEST(Serialize, AcceptsEveryNumberSpellingTheStreamParserRead) {
  const Instance ins = from_text(
      "# header comment\r\n"
      "tt\t+2\r\n"
      "weights +.5 5E-1\t# trailing comment\r\n"
      "\r\n"
      "test\tprobe {0} 4e-320\r\n"
      "treat fix\v{0,1}\f+1.25e+2\r\n"
      "treat fix2 {1} 5.\n"
      "treat zero {1} 0\n");
  ASSERT_EQ(ins.k(), 2);
  EXPECT_EQ(ins.weight(0), 0.5);
  EXPECT_EQ(ins.weight(1), 0.5);
  ASSERT_EQ(ins.num_actions(), 4);
  EXPECT_EQ(ins.action(0).name, "probe");
  EXPECT_EQ(ins.action(0).cost, 4e-320);  // subnormal, not flushed to 0
  EXPECT_GT(ins.action(0).cost, 0.0);
  EXPECT_EQ(ins.action(1).set, 0b11u);
  EXPECT_EQ(ins.action(1).cost, 125.0);
  EXPECT_EQ(ins.action(2).cost, 5.0);
  EXPECT_EQ(ins.action(3).cost, 0.0);
}

TEST(Serialize, FileRoundTrip) {
  const Instance a = fig1_example();
  const std::string path = ::testing::TempDir() + "/ttp_roundtrip.tt";
  save_file(path, a);
  const Instance b = load_file(path);
  EXPECT_EQ(to_text(a), to_text(b));
  std::remove(path.c_str());
  EXPECT_THROW(load_file(path + ".missing"), std::runtime_error);
}

TEST(Serialize, DotExportMentionsEveryNode) {
  const Instance ins = fig1_example();
  const auto res = SequentialSolver().solve(ins);
  const std::string dot = res.tree.to_dot(ins);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (int i = 0; i < res.tree.size(); ++i) {
    EXPECT_NE(dot.find("n" + std::to_string(i) + " ["), std::string::npos)
        << i;
  }
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // treatments
  EXPECT_NE(dot.find("shape=box"), std::string::npos);     // tests
  EXPECT_NE(dot.find("label=\"+\""), std::string::npos);
}

}  // namespace
}  // namespace ttp::tt
