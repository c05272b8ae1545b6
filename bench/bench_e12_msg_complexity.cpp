// E12: the price of fairness.  Rational-resilient protocols cost Theta(n^2)
// messages; classical (non-fault-tolerant) election costs Theta(n log n).
//
// All 30 (protocol, n) cells run as ONE sweep (Harness::run_sweep).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e12", "E12 / message complexity",
                   "Fair-vs-classical: Theta(n^2) is the price of rational resilience",
                   argc, argv);
  h.row_header(
      "     n   Basic-LEAD   A-LEADuni   PhaseAsync   ChangRoberts(avg)   Peterson(max)   n^2      n*log2(n)");

  const std::vector<int> sizes = {16, 32, 64, 128, 256, 512};
  // Row layout per n: basic-lead, alead-uni, phase-async-lead (5 trials),
  // then the per-trial-randomized classical baselines (25 trials).
  const std::vector<const char*> fair = {"basic-lead", "alead-uni", "phase-async-lead"};
  const std::vector<const char*> classical = {"chang-roberts", "peterson"};
  SweepSpec sweep;
  for (const int n : sizes) {
    for (const char* protocol : fair) {
      ScenarioSpec spec;
      spec.protocol = protocol;
      spec.protocol_key = 0xabull;
      spec.n = n;
      spec.trials = 5;
      spec.seed = n;
      sweep.add(spec);
    }
    for (const char* protocol : classical) {
      ScenarioSpec spec;
      spec.protocol = protocol;  // per-trial id permutations
      spec.n = n;
      spec.trials = 25;
      spec.seed = n;
      sweep.add(spec);
    }
  }
  const auto results = h.run_sweep(sweep);

  const std::size_t per_n = fair.size() + classical.size();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int n = sizes[i];
    const ScenarioResult& basic_r = results[per_n * i];
    const ScenarioResult& alead_r = results[per_n * i + 1];
    const ScenarioResult& phase_r = results[per_n * i + 2];
    const ScenarioResult& cr = results[per_n * i + 3];
    const ScenarioResult& pet = results[per_n * i + 4];
    std::printf("%6d   %10.0f   %9.0f   %10.0f   %17.1f   %13llu   %7d   %9.1f\n", n,
                basic_r.mean_messages(), alead_r.mean_messages(), phase_r.mean_messages(),
                cr.mean_messages(), static_cast<unsigned long long>(pet.max_messages), n * n,
                n * std::log2(static_cast<double>(n)));
  }
  h.note("expected shape: fair columns track n^2 (PhaseAsync = 2n^2); classical track n log n");
  return 0;
}
