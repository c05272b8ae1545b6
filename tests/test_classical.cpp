// Classical baselines (Related Work): Chang-Roberts and Peterson elect the
// expected leader with the expected message complexity.

#include <gtest/gtest.h>

#include <cmath>

#include "api/scenario.h"
#include "protocols/chang_roberts.h"
#include "protocols/peterson.h"
#include "sim/engine.h"

namespace fle {
namespace {

/// Runs `protocol`'s honest profile on `engine`, its strategies in a fresh
/// arena.
Outcome run_profile(RingEngine& engine, const RingProtocol& protocol) {
  StrategyArena arena;
  std::vector<RingStrategy*> profile;
  for (ProcessorId p = 0; p < engine.n(); ++p) {
    profile.push_back(protocol.emplace_strategy(arena, p, engine.n()));
  }
  return engine.run(profile);
}

/// A classical baseline's spec on the scalar RingEngine: each trial draws
/// its own random id permutation from the trial seed.
ScenarioSpec classical_spec(const char* protocol, int n, std::size_t trials) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

TEST(ChangRoberts, ElectsHolderOfMaxId) {
  for (int n : {2, 3, 8, 33}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const auto protocol = ChangRobertsProtocol::random(n, seed);
      RingEngine engine(n, seed);
      const Outcome o = run_profile(engine, protocol);
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
  ASSERT_TRUE(run_profile(e1, desc).valid());
  const auto desc_msgs = e1.stats().total_sent;

  RingEngine e2(n, 1);
  ASSERT_TRUE(run_profile(e2, asc).valid());
  const auto asc_msgs = e2.stats().total_sent;

  EXPECT_GT(desc_msgs, static_cast<std::uint64_t>(n) * n / 4);
  EXPECT_LE(asc_msgs, static_cast<std::uint64_t>(3 * n));
  EXPECT_GT(desc_msgs, asc_msgs * 4);
}

TEST(ChangRoberts, AverageCaseIsNLogN) {
  const int n = 128;
  const ScenarioResult result = run_scenario(classical_spec("chang-roberts", n, 30));
  ASSERT_EQ(result.outcomes.fails(), 0u);
  const double avg = result.mean_messages();
  const double nlogn = n * std::log2(n);
  EXPECT_LT(avg, 2.5 * nlogn);  // ~ n H_n + n for the announcement
  EXPECT_GT(avg, 0.5 * nlogn);
}

TEST(Peterson, ElectsAUniqueLeader) {
  for (int n : {2, 3, 4, 8, 17, 64}) {
    EXPECT_EQ(run_scenario(classical_spec("peterson", n, 10)).outcomes.fails(), 0u)
        << "n=" << n;
  }
}

TEST(Peterson, WorstCaseMessagesAreNLogN) {
  for (int n : {16, 64, 256}) {
    const ScenarioResult result = run_scenario(classical_spec("peterson", n, 15));
    ASSERT_EQ(result.outcomes.fails(), 0u) << "n=" << n;
    const double bound = 2.0 * n * (std::log2(n) + 2) + n;
    EXPECT_LT(static_cast<double>(result.max_messages), bound) << "n=" << n;
  }
}

TEST(Classical, FairProtocolsCostQuadraticallyMore) {
  // E12's headline: fairness against rational agents costs Theta(n^2)
  // messages vs Theta(n log n) for the classical protocols.
  const int n = 128;
  const auto cr = ChangRobertsProtocol::random(n, 3);
  RingEngine e(n, 3);
  ASSERT_TRUE(run_profile(e, cr).valid());
  EXPECT_LT(e.stats().total_sent, static_cast<std::uint64_t>(n) * n / 4);
}

TEST(Classical, RejectsBadPermutations) {
  EXPECT_THROW(ChangRobertsProtocol({0, 0, 2}), std::invalid_argument);
  EXPECT_THROW(PetersonProtocol({1, 2, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace fle
