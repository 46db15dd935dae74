// Binary tree codec contract (tt/serialize): structural round trips, and a
// decoder that survives hostile bytes — truncations, bit flips, and lying
// length fields must throw (or decode to some valid value), never read out
// of bounds. The ASan/UBSan CI jobs run this file, so "no OOB" is
// enforced, not assumed.
#include <gtest/gtest.h>

#include <string>

#include "tt/generator.hpp"
#include "tt/serialize.hpp"
#include "tt/solver_sequential.hpp"
#include "tt/tree.hpp"
#include "util/rng.hpp"

namespace ttp::tt {
namespace {

Instance random_named_instance(int k, util::Rng& rng) {
  RandomOptions opt;
  opt.num_tests = 2 + static_cast<int>(rng.uniform(0, 6));
  opt.num_treatments = 1 + static_cast<int>(rng.uniform(0, 6));
  return random_instance(k, opt, rng);
}

TEST(SerializeBinary, TreeRoundTripStructuralIdentity) {
  util::Rng rng(0x7EE);
  SequentialSolver solver;
  for (int k = 1; k <= 12; ++k) {
    const Instance ins = random_named_instance(k, rng);
    const Tree tree = solver.solve(ins).tree;
    std::string bytes;
    encode_tree_binary(tree, bytes);
    const Tree back = decode_tree_binary(bytes);
    ASSERT_EQ(back.size(), tree.size());
    EXPECT_EQ(back.root(), tree.root());
    for (int i = 0; i < tree.size(); ++i) {
      EXPECT_EQ(back.node(i).state, tree.node(i).state);
      EXPECT_EQ(back.node(i).action, tree.node(i).action);
      EXPECT_EQ(back.node(i).yes, tree.node(i).yes);
      EXPECT_EQ(back.node(i).no, tree.node(i).no);
    }
    if (!tree.empty()) {
      // Same rendering against the instance — the store serves this tree.
      EXPECT_EQ(back.to_string(ins), tree.to_string(ins));
    }
  }
}

TEST(SerializeBinary, EmptyTreeRoundTrip) {
  std::string bytes;
  encode_tree_binary(Tree{}, bytes);
  const Tree back = decode_tree_binary(bytes);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.root(), -1);
}

TEST(SerializeBinary, TruncationAlwaysThrows) {
  util::Rng rng(0x7121C);
  SequentialSolver solver;
  const Instance ins = random_named_instance(8, rng);
  std::string tbytes;
  encode_tree_binary(solver.solve(ins).tree, tbytes);
  // Every proper prefix must throw: either a truncated field or the final
  // expect_done() trailing-bytes check catches it.
  for (std::size_t len = 0; len < tbytes.size(); ++len) {
    EXPECT_THROW(decode_tree_binary(std::string_view(tbytes).substr(0, len)),
                 std::invalid_argument)
        << "tree prefix " << len;
  }
}

TEST(SerializeBinary, OversizedCountsRejectedBeforeAllocation) {
  // A node-count varint of 2^40: must throw on the cap check, not try to
  // allocate a 16-terabyte vector.
  std::string huge;
  huge.push_back(static_cast<char>(0x80));
  huge.push_back(static_cast<char>(0x80));
  huge.push_back(static_cast<char>(0x80));
  huge.push_back(static_cast<char>(0x80));
  huge.push_back(static_cast<char>(0x80));
  huge.push_back(static_cast<char>(0x01));  // varint 2^35
  EXPECT_THROW(decode_tree_binary(huge), std::invalid_argument);
  // An unterminated 10+-byte varint must stop at 64 bits, not shift past.
  std::string runaway(16, static_cast<char>(0xff));
  EXPECT_THROW(decode_tree_binary(runaway), std::invalid_argument);
}

TEST(SerializeBinary, BitFlipFuzzNeverReadsOutOfBounds) {
  // Seeded PRNG loop: flip one bit at a time, also splice random lengths.
  // Any outcome is acceptable except a crash/OOB (ASan enforces); a decode
  // that succeeds must yield a checkable value.
  util::Rng rng(0xF1A9);
  SequentialSolver solver;
  for (int round = 0; round < 20; ++round) {
    const Instance ins =
        random_named_instance(2 + static_cast<int>(rng.uniform(0, 8)), rng);
    std::string tbytes;
    encode_tree_binary(solver.solve(ins).tree, tbytes);
    for (int flip = 0; flip < 64; ++flip) {
      std::string tmut = tbytes;
      const std::size_t tpos =
          static_cast<std::size_t>(rng.uniform(0, tmut.size() - 1));
      tmut[tpos] = static_cast<char>(
          tmut[tpos] ^ static_cast<char>(1 << rng.uniform(0, 7)));
      try {
        const Tree got = decode_tree_binary(tmut);
        EXPECT_GE(got.size(), 0);
      } catch (const std::invalid_argument&) {
      }
    }
  }
}

}  // namespace
}  // namespace ttp::tt
