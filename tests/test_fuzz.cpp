// Failure-injection fuzzing: random byzantine strategies thrown at every
// protocol and both runtimes.  The invariant under test is the paper's
// outcome semantics: whatever a deviating processor does, the execution
// ends (quiescence or bound) and the outcome is either FAIL or a valid
// leader — never a crash, never an out-of-range agreement, and for the
// validated protocols never an *undetected* corruption of the honest
// processors' agreement.

#include <gtest/gtest.h>

#include "attacks/deviation.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "protocols/phase_async_lead.h"
#include "protocols/phase_sum_lead.h"
#include "sim/engine.h"
#include "sim/threaded_runtime.h"

namespace fle {
namespace {

/// A randomized byzantine processor: on each event it sends 0..3 random
/// values, sometimes terminates with a random output, sometimes aborts,
/// sometimes goes silent forever.
class ChaosStrategy final : public RingStrategy {
 public:
  explicit ChaosStrategy(std::uint64_t seed) : rng_(seed) {}

  void on_init(RingContext& ctx) override { act(ctx); }
  void on_receive(RingContext& ctx, Value) override {
    if (done_) return;
    act(ctx);
  }

 private:
  void act(RingContext& ctx) {
    if (silent_) return;
    const auto n = static_cast<Value>(ctx.ring_size());
    const std::uint64_t roll = rng_.below(100);
    if (roll < 5) {
      ctx.abort();
      done_ = true;
      return;
    }
    if (roll < 12) {
      ctx.terminate(rng_.below(n + 2));  // sometimes out of range
      done_ = true;
      return;
    }
    if (roll < 20) {
      silent_ = true;
      return;
    }
    const std::uint64_t burst = rng_.below(4);
    for (std::uint64_t i = 0; i < burst; ++i) ctx.send(rng_.below(4 * n));
  }

  Xoshiro256 rng_;
  bool done_ = false;
  bool silent_ = false;
};

template <typename ProtocolT>
void fuzz_protocol(const ProtocolT& protocol, int n, int chaos_count, std::uint64_t seed) {
  Xoshiro256 pick(mix64(seed));
  std::vector<ProcessorId> chaotic;
  while (static_cast<int>(chaotic.size()) < chaos_count) {
    const auto p = static_cast<ProcessorId>(pick.below(static_cast<std::uint64_t>(n)));
    if (std::find(chaotic.begin(), chaotic.end(), p) == chaotic.end()) chaotic.push_back(p);
  }
  EngineOptions options;
  options.step_limit = protocol.honest_message_bound(n) * 4 + 4096;
  RingEngine engine(n, seed, std::move(options));
  std::vector<std::unique_ptr<RingStrategy>> s;
  for (ProcessorId p = 0; p < n; ++p) {
    if (std::find(chaotic.begin(), chaotic.end(), p) != chaotic.end()) {
      s.push_back(std::make_unique<ChaosStrategy>(seed * 31 + p));
    } else {
      s.push_back(protocol.make_strategy(p, n));
    }
  }
  const Outcome o = engine.run(std::move(s));
  if (o.valid()) {
    EXPECT_LT(o.leader(), static_cast<Value>(n));
  }
  // Engine terminated cleanly either way; nothing else to assert beyond
  // the absence of crashes/hangs (the step bound caps runaway floods).
}

TEST(Fuzz, BasicLeadSurvivesChaos) {
  BasicLeadProtocol protocol;
  for (std::uint64_t seed = 0; seed < 60; ++seed) fuzz_protocol(protocol, 12, 2, seed);
}

TEST(Fuzz, ALeadUniSurvivesChaos) {
  ALeadUniProtocol protocol;
  for (std::uint64_t seed = 0; seed < 60; ++seed) fuzz_protocol(protocol, 12, 2, seed);
}

TEST(Fuzz, PhaseAsyncLeadSurvivesChaos) {
  PhaseAsyncLeadProtocol protocol(12, 0xc4a05ull);
  for (std::uint64_t seed = 0; seed < 60; ++seed) fuzz_protocol(protocol, 12, 2, seed);
}

TEST(Fuzz, PhaseSumLeadSurvivesChaos) {
  PhaseSumLeadProtocol protocol(12);
  for (std::uint64_t seed = 0; seed < 60; ++seed) fuzz_protocol(protocol, 12, 2, seed);
}

TEST(Fuzz, ManyChaoticProcessors) {
  PhaseAsyncLeadProtocol protocol(16, 0x1ull);
  for (std::uint64_t seed = 0; seed < 30; ++seed) fuzz_protocol(protocol, 16, 8, seed);
}

TEST(Fuzz, ChaosNeverForgesAgreementOnPhaseAsyncLead) {
  // Stronger invariant for the validated protocol: random byzantine noise
  // must never produce a *valid* outcome (the chaotic processor would have
  // to pass its own-value and validator checks by blind luck, probability
  // ~ 1/m per guessed validation value).
  PhaseAsyncLeadProtocol protocol(10, 0xddddull);
  int valid = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    EngineOptions options;
    options.step_limit = protocol.honest_message_bound(10) * 4 + 4096;
    RingEngine engine(10, seed, std::move(options));
    std::vector<std::unique_ptr<RingStrategy>> s;
    for (ProcessorId p = 0; p < 10; ++p) {
      if (p == 4) {
        s.push_back(std::make_unique<ChaosStrategy>(seed * 97 + 1));
      } else {
        s.push_back(protocol.make_strategy(p, 10));
      }
    }
    valid += engine.run(std::move(s)).valid() ? 1 : 0;
  }
  EXPECT_EQ(valid, 0);
}

TEST(Fuzz, ThreadedRuntimeSurvivesChaos) {
  PhaseAsyncLeadProtocol protocol(10, 0x7ull);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    ThreadedRuntimeOptions options;
    options.send_limit = protocol.honest_message_bound(10) * 4 + 4096;
    ThreadedRuntime runtime(10, seed, options);
    std::vector<std::unique_ptr<RingStrategy>> s;
    for (ProcessorId p = 0; p < 10; ++p) {
      if (p == 2 || p == 7) {
        s.push_back(std::make_unique<ChaosStrategy>(seed * 13 + p));
      } else {
        s.push_back(protocol.make_strategy(p, 10));
      }
    }
    const Outcome o = runtime.run(std::move(s));
    if (o.valid()) {
      EXPECT_LT(o.leader(), 10u);
    }
  }
}

}  // namespace
}  // namespace fle
