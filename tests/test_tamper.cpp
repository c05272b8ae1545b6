// Failure injection: every single-message tamper on every protocol must
// surface as FAIL (the validation machinery of Lemma 3.5 and Section 6).

#include <gtest/gtest.h>

#include "api/scenario.h"

namespace fle {
namespace {

struct TamperCase {
  const char* deviation;  ///< tamper-* registry key
  std::uint64_t target;   ///< which send is corrupted
};

/// One tamperer at `adversary` on the scalar RingEngine (the tamper
/// deviations have no lane kernel).
ScenarioSpec tamper_spec(const char* protocol, int n, const char* deviation,
                         ProcessorId adversary, std::uint64_t target_send) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.deviation = deviation;
  spec.coalition = CoalitionSpec::custom({adversary});
  spec.tamper_send = target_send;
  spec.n = n;
  spec.trials = 5;
  spec.engine = EngineKind::kScalar;
  return spec;
}

class TamperMatrix : public ::testing::TestWithParam<TamperCase> {};

TEST_P(TamperMatrix, ALeadUniDetects) {
  const auto [deviation, target] = GetParam();
  const auto result = run_scenario(tamper_spec("alead-uni", 12, deviation, 5, target));
  EXPECT_EQ(result.outcomes.fails(), result.outcomes.trials());
}

TEST_P(TamperMatrix, PhaseAsyncLeadDetects) {
  const auto [deviation, target] = GetParam();
  ScenarioSpec spec = tamper_spec("phase-async-lead", 12, deviation, 7, target);
  spec.protocol_key = 0xccull;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.fails(), result.outcomes.trials());
}

TEST_P(TamperMatrix, PhaseSumLeadDetects) {
  const auto [deviation, target] = GetParam();
  const auto result = run_scenario(tamper_spec("phase-sum-lead", 12, deviation, 3, target));
  EXPECT_EQ(result.outcomes.fails(), result.outcomes.trials());
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndOffsets, TamperMatrix,
    ::testing::Values(TamperCase{"tamper-flip", 0}, TamperCase{"tamper-flip", 1},
                      TamperCase{"tamper-flip", 5}, TamperCase{"tamper-drop", 0},
                      TamperCase{"tamper-drop", 3}, TamperCase{"tamper-duplicate", 0},
                      TamperCase{"tamper-duplicate", 4}, TamperCase{"tamper-extra-zero", 2}));

TEST(Tamper, BasicLeadDetectsValueFlip) {
  // Flipping a forwarded value breaks someone's own-value return.
  const auto result = run_scenario(tamper_spec("basic-lead", 10, "tamper-flip", 4, 2));
  EXPECT_EQ(result.outcomes.fails(), result.outcomes.trials());
}

TEST(Tamper, UntamperedControlStaysValid) {
  // Control: a tamper target beyond the send count changes nothing.
  const auto result = run_scenario(
      tamper_spec("alead-uni", 10, "tamper-flip", 4, /*target_send=*/10'000));
  EXPECT_EQ(result.outcomes.fails(), 0u);
}

}  // namespace
}  // namespace fle
