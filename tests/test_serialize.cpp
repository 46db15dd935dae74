// Instance text serialization: round-trips, error reporting, file I/O, and
// DOT export structure.
#include <gtest/gtest.h>

#include <cstdio>

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
