// Schedulers: pick semantics, and the paper's §2 claim that on a
// unidirectional ring all oblivious schedules yield identical outcomes.

#include <gtest/gtest.h>

#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "protocols/phase_async_lead.h"
#include "sim/engine.h"
#include "sim/scheduler.h"

namespace fle {
namespace {

TEST(Scheduler, RoundRobinRotates) {
  RoundRobinScheduler s;
  const std::vector<ProcessorId> ready{3, 5, 9};
  EXPECT_EQ(s.pick(ready), 3);
  EXPECT_EQ(s.pick(ready), 5);
  EXPECT_EQ(s.pick(ready), 9);
  EXPECT_EQ(s.pick(ready), 3);
}

TEST(Scheduler, PriorityPicksLowestRank) {
  PriorityScheduler s({2, 0, 1});
  const std::vector<ProcessorId> all{0, 1, 2};
  EXPECT_EQ(s.pick(all), 1);
  const std::vector<ProcessorId> pair{0, 2};
  EXPECT_EQ(s.pick(pair), 2);
}

TEST(Scheduler, RandomIsSeededAndInRange) {
  RandomScheduler a(5), b(5);
  const std::vector<ProcessorId> ready{1, 4, 6, 8};
  for (int i = 0; i < 50; ++i) {
    const ProcessorId pa = a.pick(ready);
    EXPECT_EQ(pa, b.pick(ready));
    EXPECT_TRUE(pa == 1 || pa == 4 || pa == 6 || pa == 8);
  }
}

/// Paper §2: on a unidirectional ring every processor has a single incoming
/// FIFO link, so all (oblivious) schedules produce the same local
/// computations.  Verify outcome equality across schedulers, trial by trial.
class ScheduleInvariance : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(ScheduleInvariance, ALeadOutcomeIndependentOfSchedule) {
  const int n = 12;
  ALeadUniProtocol protocol;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    RingEngine ref(n, seed);
    StrategyArena arena;
    std::vector<RingStrategy*> s1, s2;
    for (ProcessorId p = 0; p < n; ++p) s1.push_back(protocol.emplace_strategy(arena, p, n));
    const Outcome expected = ref.run(s1);

    EngineOptions options;
    options.scheduler = make_scheduler(GetParam(), n, seed + 1000);
    RingEngine engine(n, seed, std::move(options));
    for (ProcessorId p = 0; p < n; ++p) s2.push_back(protocol.emplace_strategy(arena, p, n));
    EXPECT_EQ(engine.run(s2), expected) << "seed=" << seed;
  }
}

TEST_P(ScheduleInvariance, PhaseOutcomeIndependentOfSchedule) {
  const int n = 9;
  PhaseAsyncLeadProtocol protocol(n, 0xf00ull);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    RingEngine ref(n, seed);
    StrategyArena arena;
    std::vector<RingStrategy*> s1, s2;
    for (ProcessorId p = 0; p < n; ++p) s1.push_back(protocol.emplace_strategy(arena, p, n));
    const Outcome expected = ref.run(s1);

    EngineOptions options;
    options.scheduler = make_scheduler(GetParam(), n, seed + 2000);
    RingEngine engine(n, seed, std::move(options));
    for (ProcessorId p = 0; p < n; ++p) s2.push_back(protocol.emplace_strategy(arena, p, n));
    EXPECT_EQ(engine.run(s2), expected) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ScheduleInvariance,
                         ::testing::Values(SchedulerKind::kRoundRobin,
                                           SchedulerKind::kRandom,
                                           SchedulerKind::kPriority));

}  // namespace
}  // namespace fle
