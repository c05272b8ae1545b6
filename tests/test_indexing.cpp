// Appendix G: the indexing (counter) phase composed with inner protocols.

#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "protocols/indexing.h"
#include "protocols/phase_async_lead.h"

namespace fle {
namespace {

/// The builtin composition wraps A-LEADuni; register the PhaseAsyncLead
/// wrapping the way user code adds a protocol.
constexpr const char* kIndexedPhase = "indexing+phase-async-lead";

/// A scalar-engine ring spec; registers kIndexedPhase on first use.
ScenarioSpec indexing_spec(const char* protocol, int n, std::size_t trials,
                           std::uint64_t key = 0x5eed) {
  if (!ProtocolRegistry::instance().contains(kIndexedPhase)) {
    ProtocolEntry entry;
    entry.name = kIndexedPhase;
    entry.summary = "Appendix G indexing phase wrapped around PhaseAsyncLead";
    entry.make_ring = [](const ScenarioSpec& spec, std::uint64_t) {
      return std::make_unique<IndexingProtocol>(
          std::make_shared<PhaseAsyncLeadProtocol>(spec.n, spec.protocol_key));
    };
    ProtocolRegistry::instance().add(std::move(entry));
  }
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.protocol_key = key;
  spec.n = n;
  spec.trials = trials;
  spec.engine = EngineKind::kScalar;
  return spec;
}

TEST(Indexing, PhaseAsyncLeadStillElectsValidLeader) {
  for (int n : {2, 3, 5, 9, 16}) {
    const auto result = run_scenario(indexing_spec(kIndexedPhase, n, 10, 0xddull + n));
    EXPECT_EQ(result.outcomes.fails(), 0u) << "n=" << n;
  }
}

TEST(Indexing, ALeadStillElectsValidLeader) {
  for (int n : {2, 4, 11}) {
    const auto result = run_scenario(indexing_spec("indexing+alead-uni", n, 10));
    EXPECT_EQ(result.outcomes.fails(), 0u) << "n=" << n;
  }
}

TEST(Indexing, AddsExactlyNMessages) {
  const int n = 10;
  const auto result = run_scenario(indexing_spec("indexing+alead-uni", n, 1));
  ASSERT_EQ(result.outcomes.fails(), 0u);
  EXPECT_EQ(result.total_messages,
            static_cast<std::uint64_t>(n) * n + static_cast<std::uint64_t>(n));
}

TEST(Indexing, ElectionStaysUniform) {
  const int n = 6;
  const auto result = run_scenario(indexing_spec(kIndexedPhase, n, 3000, 0xabcdull));
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_LT(result.outcomes.chi_square_uniform(), chi_square_critical_999(n - 1));
}

TEST(Indexing, MatchesDirectExecutionOutcome) {
  // The indexing wrapper assigns exactly the physical positions, so the
  // elected leader must equal the direct run's (inner strategies consume
  // identical tape prefixes... they do not: the wrapper does not draw from
  // the tape, so draws align).
  ScenarioSpec direct = indexing_spec("phase-async-lead", 8, 15, 0x31ull);
  direct.record_outcomes = true;
  ScenarioSpec indexed = direct;
  indexed.protocol = kIndexedPhase;
  const ScenarioResult expected = run_scenario(direct);
  EXPECT_EQ(expected.outcomes.fails(), 0u);
  EXPECT_EQ(run_scenario(indexed).per_trial, expected.per_trial);
}

}  // namespace
}  // namespace fle
