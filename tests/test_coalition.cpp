// Coalition placements (Definition 3.1, Figure 1) and their invariants.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "attacks/coalition.h"

namespace fle {
namespace {

TEST(Coalition, SegmentLengthsSumToHonestCount) {
  for (int n : {10, 37, 100}) {
    for (int k : {2, 3, 5}) {
      const auto c = Coalition::equally_spaced(n, k);
      const auto l = c.segment_lengths();
      EXPECT_EQ(std::accumulate(l.begin(), l.end(), 0), n - k);
    }
  }
}

TEST(Coalition, EquallySpacedIsBalanced) {
  const auto c = Coalition::equally_spaced(100, 7);
  const auto l = c.segment_lengths();
  const int lo = *std::min_element(l.begin(), l.end());
  const int hi = *std::max_element(l.begin(), l.end());
  EXPECT_LE(hi - lo, 1);
  EXPECT_EQ(c.k(), 7);
}

TEST(Coalition, ConsecutiveHasOneSegment) {
  const auto c = Coalition::consecutive(20, 6, 5);
  const auto l = c.segment_lengths();
  int nonzero = 0;
  for (const int x : l) nonzero += (x > 0) ? 1 : 0;
  EXPECT_EQ(nonzero, 1);
  EXPECT_EQ(c.max_segment_length(), 14);
}

TEST(Coalition, ConsecutiveWrapsAroundRing) {
  const auto c = Coalition::consecutive(10, 4, 8);  // 8,9,0,1
  EXPECT_TRUE(c.contains(8));
  EXPECT_TRUE(c.contains(9));
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(1));
  EXPECT_EQ(c.max_segment_length(), 6);
}

TEST(Coalition, IndexOfFindsMembersInRingOrder) {
  const auto c = Coalition::equally_spaced(30, 5);
  const auto& m = c.members();
  for (int j = 0; j < c.k(); ++j) {
    EXPECT_EQ(c.index_of(m[static_cast<std::size_t>(j)]), j);
  }
  EXPECT_EQ(c.index_of((m[0] + 1) % 30), -1);
}

TEST(Coalition, CubicStaircaseRespectsConstraints) {
  for (int n : {30, 100, 500, 2000}) {
    const int k = Coalition::cubic_min_k(n);
    const auto c = Coalition::cubic_staircase(n, k);
    const auto l = c.segment_lengths();
    EXPECT_EQ(std::accumulate(l.begin(), l.end(), 0), n - k);
    // Cyclic staircase constraint: forward drops bounded by k-1.
    for (int j = 0; j < k; ++j) {
      EXPECT_LE(l[static_cast<std::size_t>(j)],
                l[static_cast<std::size_t>((j + 1) % k)] + k - 1)
          << "n=" << n << " j=" << j;
    }
    // Last segment (wrap) at most k-1.
    EXPECT_LE(l.back(), k - 1);
    EXPECT_FALSE(c.contains(0));
  }
}

TEST(Coalition, CubicMinKFeasibleAndTight) {
  for (int n : {20, 100, 1000}) {
    const int k = Coalition::cubic_min_k(n);
    EXPECT_NO_THROW(Coalition::cubic_staircase(n, k));
    if (k > 2) {
      EXPECT_THROW(Coalition::cubic_staircase(n, k - 1), std::invalid_argument);
    }
  }
}

TEST(Coalition, BernoulliDensityMatches) {
  const int n = 2000;
  const double p = 0.1;
  double total = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    total += Coalition::bernoulli(n, p, seed).k();
  }
  EXPECT_NEAR(total / 30.0, n * p, 25.0);
}

TEST(Coalition, BernoulliIsSeedDeterministic) {
  const auto a = Coalition::bernoulli(100, 0.2, 7);
  const auto b = Coalition::bernoulli(100, 0.2, 7);
  EXPECT_EQ(a.members(), b.members());
}

TEST(Coalition, RushingPreconditionThreshold) {
  // l_j <= k-1 for equal spacing <=> n <= k^2 (Theorem 4.2's boundary).
  EXPECT_TRUE(Coalition::equally_spaced(25, 5).rushing_precondition_holds());
  EXPECT_FALSE(Coalition::equally_spaced(26, 5).rushing_precondition_holds());
}

TEST(Coalition, RushingPreconditionRejectsALoneMember) {
  // A lone member's one segment is the n - 1 others, never <= k - 1 = 0,
  // although segment_lengths() reports it as -1 (the distance to itself).
  for (const int n : {2, 8, 64}) {
    const Coalition lone(n, {1});
    EXPECT_EQ(lone.segment_lengths(), std::vector<int>{-1}) << n;
    EXPECT_FALSE(lone.rushing_precondition_holds()) << n;
  }
  EXPECT_TRUE(Coalition(4, {1, 3}).rushing_precondition_holds());
}

TEST(Coalition, RejectsDegenerateInputs) {
  EXPECT_THROW(Coalition(5, {0, 1, 2, 3, 4}), std::invalid_argument);  // nobody honest
  EXPECT_THROW(Coalition(5, {7}), std::invalid_argument);              // out of range
  EXPECT_THROW(Coalition::equally_spaced(10, 0), std::invalid_argument);
  EXPECT_THROW(Coalition::equally_spaced(10, 10), std::invalid_argument);
}

TEST(Coalition, RenderMentionsLayout) {
  const auto c = Coalition::equally_spaced(12, 3);
  const auto s = c.render();
  EXPECT_NE(s.find("n=12"), std::string::npos);
  EXPECT_NE(s.find("k=3"), std::string::npos);
}

}  // namespace
}  // namespace fle
