// Appendix G: the indexing (counter) phase composed with inner protocols.

#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "protocols/alead_uni.h"
#include "protocols/indexing.h"
#include "protocols/phase_async_lead.h"
#include "sim/engine.h"

namespace fle {
namespace {

TEST(Indexing, PhaseAsyncLeadStillElectsValidLeader) {
  for (int n : {2, 3, 5, 9, 16}) {
    auto inner = std::make_shared<PhaseAsyncLeadProtocol>(n, 0xddull + n);
    IndexingProtocol protocol(inner);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const Outcome o = run_honest(protocol, n, seed);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
      ASSERT_LT(o.leader(), static_cast<Value>(n));
    }
  }
}

TEST(Indexing, ALeadStillElectsValidLeader) {
  for (int n : {2, 4, 11}) {
    auto inner = std::make_shared<ALeadUniProtocol>();
    IndexingProtocol protocol(inner);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      ASSERT_TRUE(run_honest(protocol, n, seed).valid()) << "n=" << n;
    }
  }
}

TEST(Indexing, AddsExactlyNMessages) {
  const int n = 10;
  auto inner = std::make_shared<ALeadUniProtocol>();
  IndexingProtocol protocol(inner);
  RingEngine engine(n, 5);
  std::vector<std::unique_ptr<RingStrategy>> s;
  for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.make_strategy(p, n));
  ASSERT_TRUE(engine.run(std::move(s)).valid());
  EXPECT_EQ(engine.stats().total_sent,
            static_cast<std::uint64_t>(n) * n + static_cast<std::uint64_t>(n));
}

TEST(Indexing, ElectionStaysUniform) {
  // The builtin composition wraps A-LEADuni; register the PhaseAsyncLead
  // wrapping the way user code adds a protocol.
  const std::string name = "indexing+phase-async-lead";
  if (!ProtocolRegistry::instance().contains(name)) {
    ProtocolEntry entry;
    entry.name = name;
    entry.summary = "Appendix G indexing phase wrapped around PhaseAsyncLead";
    entry.make_ring = [](const ScenarioSpec& spec, std::uint64_t) {
      return std::make_unique<IndexingProtocol>(
          std::make_shared<PhaseAsyncLeadProtocol>(spec.n, spec.protocol_key));
    };
    ProtocolRegistry::instance().add(std::move(entry));
  }
  const int n = 6;
  ScenarioSpec spec;
  spec.protocol = name;
  spec.protocol_key = 0xabcdull;
  spec.n = n;
  spec.trials = 3000;
  spec.engine = EngineKind::kScalar;
  const auto result = run_scenario(spec);
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_LT(result.outcomes.chi_square_uniform(), chi_square_critical_999(n - 1));
}

TEST(Indexing, MatchesDirectExecutionOutcome) {
  // The indexing wrapper assigns exactly the physical positions, so the
  // elected leader must equal the direct run's (inner strategies consume
  // identical tape prefixes... they do not: the wrapper does not draw from
  // the tape, so draws align).
  const int n = 8;
  auto inner = std::make_shared<PhaseAsyncLeadProtocol>(n, 0x31ull);
  IndexingProtocol wrapped(inner);
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Outcome direct = run_honest(*inner, n, seed);
    const Outcome indexed = run_honest(wrapped, n, seed);
    ASSERT_TRUE(direct.valid());
    EXPECT_EQ(indexed, direct) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace fle
