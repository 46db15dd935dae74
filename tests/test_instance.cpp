#include "tt/instance.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace ttp::tt {
namespace {

TEST(Instance, ConstructionAndAccessors) {
  Instance ins(3, {0.5, 0.3, 0.2});
  EXPECT_EQ(ins.k(), 3);
  EXPECT_EQ(ins.universe(), 0b111u);
  EXPECT_EQ(ins.num_actions(), 0);
  EXPECT_DOUBLE_EQ(ins.weight(1), 0.3);
}

TEST(Instance, RejectsBadConstruction) {
  EXPECT_THROW(Instance(0, {}), std::invalid_argument);
  EXPECT_THROW(Instance(25, std::vector<double>(25, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(Instance(3, {1.0, 1.0}), std::invalid_argument);
}

TEST(Instance, TestsKeptBeforeTreatments) {
  Instance ins(3, {1, 1, 1});
  ins.add_treatment(0b001, 1.0);
  const int t0 = ins.add_test(0b011, 1.0);
  ins.add_treatment(0b110, 1.0);
  const int t1 = ins.add_test(0b101, 1.0);
  EXPECT_EQ(t0, 0);
  EXPECT_EQ(t1, 1);
  EXPECT_EQ(ins.num_tests(), 2);
  EXPECT_EQ(ins.num_treatments(), 2);
  EXPECT_TRUE(ins.action(0).is_test);
  EXPECT_TRUE(ins.action(1).is_test);
  EXPECT_FALSE(ins.action(2).is_test);
  EXPECT_FALSE(ins.action(3).is_test);
  ins.check();
}

TEST(Instance, SubsetWeightMatchesTable) {
  Instance ins(4, {0.1, 0.2, 0.3, 0.4});
  const auto& table = ins.subset_weight_table();
  ASSERT_EQ(table.size(), 16u);
  for (Mask s = 0; s < 16; ++s) {
    EXPECT_DOUBLE_EQ(table[s], ins.subset_weight(s)) << "mask " << s;
  }
  EXPECT_DOUBLE_EQ(table[0], 0.0);
  EXPECT_DOUBLE_EQ(table[0b1111], 1.0);
}

TEST(Instance, CheckRejectsBadData) {
  Instance bad_weight(2, {1.0, 0.0});
  EXPECT_THROW(bad_weight.check(), std::invalid_argument);

  Instance bad_set(2, {1.0, 1.0});
  bad_set.add_test(0b111, 1.0);  // outside 2-object universe
  EXPECT_THROW(bad_set.check(), std::invalid_argument);

  Instance bad_cost(2, {1.0, 1.0});
  bad_cost.add_treatment(0b01, -1.0);
  EXPECT_THROW(bad_cost.check(), std::invalid_argument);

  Instance nan_cost(2, {1.0, 1.0});
  nan_cost.add_treatment(0b01, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(nan_cost.check(), std::invalid_argument);

  // Non-finite weights, and finite ones that do not normalize to positive
  // priors (the sum overflows, or one prior underflows to 0).
  for (const std::vector<double>& w : std::vector<std::vector<double>>{
           {std::numeric_limits<double>::infinity(), 1.0},
           {std::numeric_limits<double>::quiet_NaN(), 1.0},
           {1e308, 1e308},
           {1e-300, 1e308}}) {
    EXPECT_THROW(Instance(2, w).check(), std::invalid_argument) << w[0];
  }
}

TEST(Instance, EveryObjectTreatable) {
  Instance ins(3, {1, 1, 1});
  ins.add_treatment(0b011, 1.0);
  EXPECT_FALSE(ins.every_object_treatable());
  ins.add_treatment(0b100, 1.0);
  EXPECT_TRUE(ins.every_object_treatable());
}

TEST(Instance, Fig1ExampleIsWellFormed) {
  const Instance ins = fig1_example();
  EXPECT_EQ(ins.k(), 4);
  EXPECT_EQ(ins.num_tests(), 2);
  EXPECT_EQ(ins.num_treatments(), 3);
  EXPECT_TRUE(ins.every_object_treatable());
}

}  // namespace
}  // namespace ttp::tt
