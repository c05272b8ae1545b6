// Quickstart: the shortest path from clone to a paper experiment.
//
//   $ ./quickstart [n] [trials]
//
// Names the experiment as a ScenarioSpec — topology, protocol, size, trials,
// seed — and hands it to run_scenario(), which picks the engine, fans the
// trials out over every core, and aggregates.  Here: honest elections with
// PhaseAsyncLead (the paper's Theta(sqrt(n))-resilient protocol, Section 6)
// on an asynchronous n-ring; each processor should win ~ 1/n of the time.

#include <cstdio>
#include <cstdlib>

#include "api/scenario.h"

int main(int argc, char** argv) {
  using namespace fle;

  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;  // async unidirectional ring
  spec.protocol = "phase-async-lead";   // registry key; "" deviation = honest
  spec.n = argc > 1 ? std::atoi(argv[1]) : 16;
  spec.trials = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 2000;
  spec.seed = 1;
  spec.threads = 0;  // 0 = one worker per hardware core

  const ScenarioResult r = run_scenario(spec);

  std::printf("%s on an honest n=%d ring, %zu trials (%.2fs)\n", r.protocol_name.c_str(),
              spec.n, r.trials, r.wall_seconds);
  std::printf("\nleader   wins   frequency (expect %.4f)\n", 1.0 / spec.n);
  for (Value j = 0; j < static_cast<Value>(spec.n); ++j) {
    std::printf("%6llu   %4zu   %.4f\n", static_cast<unsigned long long>(j),
                r.outcomes.count(j), r.outcomes.leader_rate(j));
  }
  std::printf("\nFAIL rate: %.4f   max bias: %.4f   mean messages: %.0f (= 2n^2)\n",
              r.outcomes.fail_rate(), r.outcomes.max_bias(), r.mean_messages());
  return 0;
}
