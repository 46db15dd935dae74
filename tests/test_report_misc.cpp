// Coverage for the reporting/counter utilities and the §4 schedules with a
// caller-supplied combine function.
#include <gtest/gtest.h>

#include <sstream>

#include "net/schedule.hpp"
#include "tt/report.hpp"
#include "tt/solver_sequential.hpp"
#include "util/counters.hpp"

namespace ttp {
namespace {

TEST(Report, DescribeListsEveryAction) {
  const tt::Instance ins = tt::fig1_example();
  const std::string d = tt::describe(ins);
  for (int i = 0; i < ins.num_actions(); ++i) {
    EXPECT_NE(d.find(ins.action(i).name), std::string::npos) << i;
  }
  EXPECT_NE(d.find("k=4"), std::string::npos);
}

TEST(Report, PrintResultCoversFeasibleAndInfeasible) {
  const tt::Instance ins = tt::fig1_example();
  const auto res = tt::SequentialSolver().solve(ins);
  std::ostringstream os;
  tt::print_result(os, ins, res, "seq");
  EXPECT_NE(os.str().find("C(U) = 4.05"), std::string::npos);
  EXPECT_NE(os.str().find("optimal procedure"), std::string::npos);

  tt::Instance bad(2, {1.0, 1.0});
  bad.add_treatment(0b01, 1.0);
  const auto rbad = tt::SequentialSolver().solve(bad);
  std::ostringstream os2;
  tt::print_result(os2, bad, rbad, "seq");
  EXPECT_NE(os2.str().find("no successful procedure"), std::string::npos);
}

TEST(Counters, StepCounterAccumulates) {
  util::StepCounter a;
  a.step(10, true);
  a.step(5, false);
  EXPECT_EQ(a.parallel_steps, 2u);
  EXPECT_EQ(a.route_steps, 1u);
  EXPECT_EQ(a.total_ops, 15u);
  util::StepCounter b;
  b.step(1);
  b += a;
  EXPECT_EQ(b.parallel_steps, 3u);
  EXPECT_EQ(b.total_ops, 16u);
  a.reset();
  EXPECT_EQ(a.parallel_steps, 0u);
}

TEST(Schedule, Propagation1CustomCombine) {
  // Sum-combine instead of the default OR: the level-up values add.
  net::HypercubeMachine<net::FlowState> m(3);
  for (std::size_t p : {1u, 2u, 4u}) {
    m.at(p).sender = true;
    m.at(p).value = 10 * p;
  }
  net::propagation1_round(
      m, nullptr, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  // PE {0,1} = 0b011 receives 10 + 20.
  EXPECT_EQ(m.at(0b011).value, 30u);
  EXPECT_EQ(m.at(0b111).value, 0u);  // two levels up: untouched this round
}

TEST(Schedule, Propagation2CustomCombine) {
  net::HypercubeMachine<net::FlowState> m(3);
  m.at(1).sender = true;
  m.at(1).value = 5;
  m.at(2).sender = true;
  m.at(2).value = 7;
  net::propagation2(
      m, nullptr, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(m.at(0b011).value, 12u);  // both singletons flow in
}

}  // namespace
}  // namespace ttp
