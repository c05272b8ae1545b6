// Synchronization-gap tracing (Lemmas D.3/D.5 instrumentation).

#include <gtest/gtest.h>

#include "attacks/coalition.h"
#include "attacks/cubic.h"
#include "attacks/deviation.h"
#include "protocols/alead_uni.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace fle {
namespace {

/// Runs the (deviated) profile on `engine`, its strategies in a fresh arena.
Outcome run_profile(RingEngine& engine, const RingProtocol& protocol,
                    const Deviation* deviation = nullptr) {
  StrategyArena arena;
  std::vector<RingStrategy*> profile;
  compose_profile_into(protocol, deviation, engine.n(), arena, profile);
  return engine.run(profile);
}

TEST(SyncTrace, HonestALeadGapStaysAtOne) {
  const int n = 24;
  ALeadUniProtocol protocol;
  SyncTrace trace({}, /*sample_every=*/8);
  EngineOptions options;
  options.observer = trace.observer();
  RingEngine engine(n, 3, std::move(options));
  ASSERT_TRUE(run_profile(engine, protocol).valid());
  EXPECT_LE(trace.max_gap(), 1u);
  EXPECT_FALSE(trace.series().empty());
  for (const auto g : trace.series()) EXPECT_LE(g, 1u);
}

TEST(SyncTrace, WatchedSubsetTracksCoalitionDesync) {
  // Watching only the coalition during the cubic attack shows the Theta(k^2)
  // spread among adversaries (Lemma D.5's quantity).
  const int n = 125;
  const int k = Coalition::cubic_min_k(n);
  const auto coalition = Coalition::cubic_staircase(n, k);
  ALeadUniProtocol protocol;
  CubicDeviation deviation(coalition, 0);

  SyncTrace coalition_trace(coalition.members());
  EngineOptions options;
  options.observer = coalition_trace.observer();
  RingEngine engine(n, 5, std::move(options));
  const Outcome o = run_profile(engine, protocol, &deviation);
  ASSERT_TRUE(o.valid());
  EXPECT_GT(coalition_trace.max_gap(), static_cast<std::uint64_t>(k));
  EXPECT_LE(coalition_trace.max_gap(), static_cast<std::uint64_t>(2 * k * k));
}

TEST(SyncTrace, SeriesIsMonotoneInPrefixMaximum) {
  // max_gap equals the maximum of the recorded series (sampling can only
  // miss transient peaks between samples, never exceed them).
  const int n = 60;
  const int k = Coalition::cubic_min_k(n);
  ALeadUniProtocol protocol;
  CubicDeviation deviation(Coalition::cubic_staircase(n, k), 1);
  SyncTrace trace({}, /*sample_every=*/1);
  EngineOptions options;
  options.observer = trace.observer();
  RingEngine engine(n, 6, std::move(options));
  ASSERT_TRUE(run_profile(engine, protocol, &deviation).valid());
  std::uint64_t series_max = 0;
  for (const auto g : trace.series()) series_max = std::max(series_max, g);
  EXPECT_EQ(series_max, trace.max_gap());
}

TEST(SyncTrace, ResetClearsState) {
  SyncTrace trace({});
  auto obs = trace.observer();
  const std::vector<std::uint64_t> sent{5, 1, 3};
  obs(1, 0, 0, std::span<const std::uint64_t>(sent));
  EXPECT_EQ(trace.max_gap(), 4u);
  trace.reset();
  EXPECT_EQ(trace.max_gap(), 0u);
  EXPECT_TRUE(trace.series().empty());
}

TEST(SyncTrace, EngineGapAgreesWithFullWatchTrace) {
  // The engine's O(1) histogram tracking and the observer's O(n) rescan
  // must agree (while no processor has terminated, which covers the whole
  // pre-termination window the engine reports).
  const int n = 40;
  const int k = Coalition::cubic_min_k(n);
  ALeadUniProtocol protocol;
  CubicDeviation deviation(Coalition::cubic_staircase(n, k), 2);
  SyncTrace trace({}, 1);
  EngineOptions options;
  options.observer = trace.observer();
  RingEngine engine(n, 8, std::move(options));
  ASSERT_TRUE(run_profile(engine, protocol, &deviation).valid());
  // The trace keeps sampling after terminations (counts freeze), so it can
  // only see gaps >= the engine's frozen view.
  EXPECT_GE(trace.max_gap(), engine.stats().max_sync_gap);
}

}  // namespace
}  // namespace fle
