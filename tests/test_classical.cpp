// Classical baselines (Related Work): Chang-Roberts and Peterson elect the
// expected leader with the expected message complexity.

#include <gtest/gtest.h>

#include <cmath>

#include "protocols/chang_roberts.h"
#include "protocols/peterson.h"
#include "sim/engine.h"

namespace fle {
namespace {

TEST(ChangRoberts, ElectsHolderOfMaxId) {
  for (int n : {2, 3, 8, 33}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const auto protocol = ChangRobertsProtocol::random(n, seed);
      const Outcome o = run_honest(protocol, n, seed);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(o.leader(), static_cast<Value>(protocol.expected_winner()));
    }
  }
}

TEST(ChangRoberts, WorstCaseQuadraticBestCaseLinear) {
  const int n = 64;
  // Descending arrangement (relative to ring direction): every candidate id
  // travels far => Theta(n^2)/2-ish.  Ascending: all but max die instantly.
  std::vector<Value> descending(n), ascending(n);
  for (int i = 0; i < n; ++i) {
    descending[static_cast<std::size_t>(i)] = static_cast<Value>(n - 1 - i);
    ascending[static_cast<std::size_t>(i)] = static_cast<Value>(i);
  }
  ChangRobertsProtocol desc{descending}, asc{ascending};

  RingEngine e1(n, 1);
  std::vector<std::unique_ptr<RingStrategy>> s1;
  for (ProcessorId p = 0; p < n; ++p) s1.push_back(desc.make_strategy(p, n));
  ASSERT_TRUE(e1.run(std::move(s1)).valid());
  const auto desc_msgs = e1.stats().total_sent;

  RingEngine e2(n, 1);
  std::vector<std::unique_ptr<RingStrategy>> s2;
  for (ProcessorId p = 0; p < n; ++p) s2.push_back(asc.make_strategy(p, n));
  ASSERT_TRUE(e2.run(std::move(s2)).valid());
  const auto asc_msgs = e2.stats().total_sent;

  EXPECT_GT(desc_msgs, static_cast<std::uint64_t>(n) * n / 4);
  EXPECT_LE(asc_msgs, static_cast<std::uint64_t>(3 * n));
  EXPECT_GT(desc_msgs, asc_msgs * 4);
}

TEST(ChangRoberts, AverageCaseIsNLogN) {
  const int n = 128;
  double total = 0;
  const int trials = 30;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    const auto protocol = ChangRobertsProtocol::random(n, seed);
    RingEngine engine(n, seed);
    std::vector<std::unique_ptr<RingStrategy>> s;
    for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.make_strategy(p, n));
    ASSERT_TRUE(engine.run(std::move(s)).valid());
    total += static_cast<double>(engine.stats().total_sent);
  }
  const double avg = total / trials;
  const double nlogn = n * std::log2(n);
  EXPECT_LT(avg, 2.5 * nlogn);  // ~ n H_n + n for the announcement
  EXPECT_GT(avg, 0.5 * nlogn);
}

TEST(Peterson, ElectsAUniqueLeader) {
  for (int n : {2, 3, 4, 8, 17, 64}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const auto protocol = PetersonProtocol::random(n, seed);
      const Outcome o = run_honest(protocol, n, seed);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
      ASSERT_LT(o.leader(), static_cast<Value>(n));
    }
  }
}

TEST(Peterson, WorstCaseMessagesAreNLogN) {
  for (int n : {16, 64, 256}) {
    std::uint64_t worst = 0;
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const auto protocol = PetersonProtocol::random(n, seed);
      RingEngine engine(n, seed);
      std::vector<std::unique_ptr<RingStrategy>> s;
      for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.make_strategy(p, n));
      ASSERT_TRUE(engine.run(std::move(s)).valid());
      worst = std::max(worst, engine.stats().total_sent);
    }
    const double bound = 2.0 * n * (std::log2(n) + 2) + n;
    EXPECT_LT(static_cast<double>(worst), bound) << "n=" << n;
  }
}

TEST(Classical, FairProtocolsCostQuadraticallyMore) {
  // E12's headline: fairness against rational agents costs Theta(n^2)
  // messages vs Theta(n log n) for the classical protocols.
  const int n = 128;
  const auto cr = ChangRobertsProtocol::random(n, 3);
  RingEngine e(n, 3);
  std::vector<std::unique_ptr<RingStrategy>> s;
  for (ProcessorId p = 0; p < n; ++p) s.push_back(cr.make_strategy(p, n));
  ASSERT_TRUE(e.run(std::move(s)).valid());
  EXPECT_LT(e.stats().total_sent, static_cast<std::uint64_t>(n) * n / 4);
}

TEST(Classical, RejectsBadPermutations) {
  EXPECT_THROW(ChangRobertsProtocol({0, 0, 2}), std::invalid_argument);
  EXPECT_THROW(PetersonProtocol({1, 2, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace fle
