// Unit tests for Config — the multiset arithmetic everything else builds on.
#include "core/config.hpp"

#include <gtest/gtest.h>

namespace ppsc {
namespace {

TEST(Config, EmptyConfigHasSizeZero) {
    Config c(4);
    EXPECT_EQ(c.size(), 0);
    EXPECT_EQ(c.num_states(), 4u);
    EXPECT_TRUE(c.support().empty());
}

TEST(Config, FromCountsAndAccessors) {
    Config c = Config::from_counts({2, 0, 3});
    EXPECT_EQ(c.size(), 5);
    EXPECT_EQ(c[0], 2);
    EXPECT_EQ(c[1], 0);
    EXPECT_EQ(c[2], 3);
    EXPECT_EQ(c.support(), (std::vector<StateId>{0, 2}));
}

TEST(Config, FromCountsRejectsNegative) {
    EXPECT_THROW(Config::from_counts({1, -1}), std::invalid_argument);
}

TEST(Config, SingleFactory) {
    Config c = Config::single(3, 1, 7);
    EXPECT_EQ(c.size(), 7);
    EXPECT_EQ(c[1], 7);
}

TEST(Config, SetAndAdd) {
    Config c(2);
    c.set(0, 5);
    c.add(0, -2);
    c.add(1, 1);
    EXPECT_EQ(c[0], 3);
    EXPECT_EQ(c[1], 1);
    EXPECT_THROW(c.add(1, -5), std::invalid_argument);
    EXPECT_THROW(c.set(0, -1), std::invalid_argument);
}

TEST(Config, OutOfRangeMutationThrows) {
    // operator[] is an unchecked hot-path accessor (debug-asserted only);
    // the mutating API keeps its bounds checks.
    Config c(2);
    EXPECT_THROW(c.set(2, 1), std::out_of_range);
    EXPECT_THROW(c.add(5, 1), std::out_of_range);
}

TEST(Config, SizeIsMaintainedIncrementally) {
    Config c(3);
    EXPECT_EQ(c.size(), 0);
    c.set(0, 4);
    c.add(1, 2);
    EXPECT_EQ(c.size(), 6);
    c.add(0, -3);
    EXPECT_EQ(c.size(), 3);
    c.set(0, 0);
    EXPECT_EQ(c.size(), 2);
    Config d = c;
    d += c;
    EXPECT_EQ(d.size(), 4);
    d -= c;
    EXPECT_EQ(d.size(), 2);
    d *= 5;
    EXPECT_EQ(d.size(), 10);
}

TEST(Config, CopiesCompareEqual) {
    Config c(2);
    c.set(0, 1);
    c.add(1, 3);
    const Config d = c;
    EXPECT_TRUE(d == c);
    EXPECT_EQ(d.size(), 4);
}

TEST(Config, AdditionAndSubtraction) {
    const Config a = Config::from_counts({1, 2, 0});
    const Config b = Config::from_counts({0, 1, 4});
    EXPECT_EQ((a + b).counts(), (std::vector<AgentCount>{1, 3, 4}));
    EXPECT_EQ(((a + b) - b).counts(), a.counts());
    EXPECT_THROW(a - b, std::invalid_argument);
}

TEST(Config, DimensionMismatchThrows) {
    const Config a = Config::from_counts({1});
    const Config b = Config::from_counts({1, 2});
    EXPECT_THROW(a + b, std::invalid_argument);
}

TEST(Config, ScalarMultiple) {
    const Config a = Config::from_counts({1, 2});
    EXPECT_EQ((a * 3).counts(), (std::vector<AgentCount>{3, 6}));
    EXPECT_EQ((0 * a).size(), 0);
    EXPECT_THROW(a * -1, std::invalid_argument);
}

TEST(Config, ComponentwiseOrder) {
    const Config a = Config::from_counts({1, 2});
    const Config b = Config::from_counts({2, 2});
    const Config c = Config::from_counts({0, 3});
    EXPECT_TRUE(a.leq(b));
    EXPECT_FALSE(b.leq(a));
    EXPECT_FALSE(a.leq(c));
    EXPECT_FALSE(c.leq(a));
    EXPECT_TRUE(a.leq(a));
}

TEST(Config, SaturationCheck) {
    const Config a = Config::from_counts({2, 3, 2});
    EXPECT_TRUE(a.is_saturated(2));
    EXPECT_FALSE(a.is_saturated(3));
    EXPECT_TRUE(a.is_saturated(0));
}

TEST(Config, MonotonicityOfAddition) {
    // The monotonicity property of Section 2.2 at the level of multisets:
    // C ≤ D implies C + E ≤ D + E.
    const Config c = Config::from_counts({1, 0, 2});
    const Config d = Config::from_counts({1, 1, 3});
    const Config e = Config::from_counts({4, 4, 4});
    ASSERT_TRUE(c.leq(d));
    EXPECT_TRUE((c + e).leq(d + e));
}

TEST(Config, HashDiffersOnDifferentConfigs) {
    const Config a = Config::from_counts({1, 2});
    const Config b = Config::from_counts({2, 1});
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.hash(), Config::from_counts({1, 2}).hash());
}

TEST(Config, ToStringRendersCounts) {
    const Config a = Config::from_counts({2, 0, 1});
    EXPECT_EQ(a.to_string(), "{2·q0, q2}");
    const std::string names[] = {"A", "B", "C"};
    EXPECT_EQ(a.to_string(names), "{2·A, C}");
    EXPECT_EQ(Config(2).to_string(), "{}");
}

}  // namespace
}  // namespace ppsc
