// §4 dataflow algorithms at the hypercube level: broadcasting and the two
// propagation kinds, including regeneration of the paper's Fig. 6 schedule.
#include <gtest/gtest.h>

#include "net/schedule.hpp"

namespace ttp::net {
namespace {

TEST(Broadcast, EveryPeReceivesTheValue) {
  HypercubeMachine<FlowState> m(4);
  m.at(0).value = 0xBEEF;
  broadcast(m, 0);
  for (std::size_t p = 0; p < m.size(); ++p) {
    EXPECT_EQ(m.at(p).value, 0xBEEFu) << p;
    EXPECT_TRUE(m.at(p).sender);
  }
  EXPECT_EQ(m.steps().parallel_steps, 4u);  // one step per dimension
}

TEST(Broadcast, WorksFromAnySource) {
  for (std::size_t src = 0; src < 8; ++src) {
    HypercubeMachine<FlowState> m(3);
    m.at(src).value = 42 + src;
    broadcast(m, src);
    for (std::size_t p = 0; p < m.size(); ++p) {
      EXPECT_EQ(m.at(p).value, 42 + src);
    }
  }
}

TEST(Broadcast, Fig6ScheduleFor16Pes) {
  // The paper's Fig. 6 lists the send events of broadcasting from PE 0 on a
  // 16-PE array: 1 send along dim 0, 2 along dim 1, 4 along dim 2, 8 along
  // dim 3, each sender s sending to s + 2^dim.
  HypercubeMachine<FlowState> m(4);
  m.at(0).value = 1;
  EventLog log;
  broadcast(m, 0, &log);
  ASSERT_EQ(log.size(), 15u);  // every PE but the source receives once
  std::size_t idx = 0;
  for (int d = 0; d < 4; ++d) {
    const std::size_t expected = std::size_t{1} << d;
    std::size_t count = 0;
    for (const auto& e : log) {
      if (e.dim != d) continue;
      ++count;
      EXPECT_LT(e.from, expected * 2);
      EXPECT_EQ(e.to, e.from + expected);
    }
    EXPECT_EQ(count, expected) << "dim " << d;
    idx += count;
  }
  EXPECT_EQ(idx, 15u);

  const std::string rendered = format_events_fig6(log, 4);
  EXPECT_NE(rendered.find("0000 -> 0001"), std::string::npos);
  EXPECT_NE(rendered.find("0111 -> 1111"), std::string::npos);
}

TEST(Propagation1, MovesDataOneLevelUp) {
  // Paper example: N=2, 16 PEs; PE 0111 receives from 0110, 0101, 0011.
  HypercubeMachine<FlowState> m(4);
  for (std::size_t p = 0; p < m.size(); ++p) {
    if (util::popcount(static_cast<util::Mask>(p)) == 2) {
      m.at(p).sender = true;
      m.at(p).value = std::uint64_t{1} << p;  // unique token per sender
    }
  }
  propagation1_round(m);
  const std::size_t target = 0b0111;
  const std::uint64_t expect = (std::uint64_t{1} << 0b0110) |
                               (std::uint64_t{1} << 0b0101) |
                               (std::uint64_t{1} << 0b0011);
  EXPECT_EQ(m.at(target).value, expect);
  // Only popcount-3 PEs received.
  for (std::size_t p = 0; p < m.size(); ++p) {
    const int pc = util::popcount(static_cast<util::Mask>(p));
    EXPECT_EQ(m.at(p).received, pc == 3) << p;
  }
}

TEST(Propagation1, WalksLevelsWithPromotion) {
  // Data starting at PE 0 should reach the k-group after k rounds, each PE
  // learning its membership only from the arrival (paper's PE-allocation
  // argument).
  const int dims = 4;
  HypercubeMachine<FlowState> m(dims);
  m.at(0).sender = true;
  m.at(0).value = 7;
  for (int level = 1; level <= dims; ++level) {
    propagation1_round(m);
    propagation1_promote(m);
    for (std::size_t p = 0; p < m.size(); ++p) {
      const bool in_group =
          util::popcount(static_cast<util::Mask>(p)) == level;
      EXPECT_EQ(m.at(p).sender, in_group) << "level " << level << " PE " << p;
      if (in_group) {
        EXPECT_EQ(m.at(p).value, 7u);
      }
    }
  }
}

TEST(Propagation2, FloodsToAllSupersets) {
  // Paper example: M=3, N=1; PE 0111 gets data from 0001, 0010, 0100.
  HypercubeMachine<FlowState> m(4);
  for (std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    m.at(p).sender = true;
    m.at(p).value = std::uint64_t{1} << p;
  }
  propagation2(m);
  EXPECT_EQ(m.at(0b0111).value,
            (std::uint64_t{1} << 1) | (std::uint64_t{1} << 2) |
                (std::uint64_t{1} << 4));
  // Every superset of a singleton got the union of its singleton subsets.
  for (std::size_t p = 1; p < m.size(); ++p) {
    std::uint64_t expect = 0;
    for (int b = 0; b < 4; ++b) {
      if ((p >> b) & 1u) expect |= std::uint64_t{1} << (std::size_t{1} << b);
    }
    EXPECT_EQ(m.at(p).value, expect) << p;
    EXPECT_TRUE(m.at(p).sender);
  }
}

TEST(Propagation2, SingleRoundCost) {
  HypercubeMachine<FlowState> m(5);
  m.at(0).sender = true;
  propagation2(m);
  EXPECT_EQ(m.steps().parallel_steps, 5u);  // O(m), paper §4.4
}

}  // namespace
}  // namespace ttp::net
