// E8 (Appendix E.4): phase validation with a *sum* output (PhaseSumLead)
// falls to a constant coalition of k = 4 via the validation covert channel
// — the ablation that motivates PhaseAsyncLead's random function.
//
// The whole n-sweep is one executor submission (api/sweep.h).

#include <cstdio>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e08", "E8 / Appendix E.4 (ablation: sum output instead of random f)",
                   "PhaseSumLead: k = 4 adversaries control any ring size", argc, argv);
  h.row_header("      n    k   attacked Pr[w]   FAIL   sync gap");

  const std::vector<int> sizes = {32, 64, 128, 256, 512, 1024};
  SweepSpec sweep;
  for (const int n : sizes) {
    ScenarioSpec spec;
    spec.protocol = "phase-sum-lead";
    spec.deviation = "phase-sum";  // canonical k = 4 placement
    spec.target = static_cast<Value>(n - 3);
    spec.n = n;
    spec.trials = 25;
    spec.seed = 5 * n;
    sweep.add(spec);
  }
  const auto results = h.run_sweep(sweep);

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::printf("%7d    4   %14.4f   %4.2f   %8llu\n", sizes[i],
                r.outcomes.leader_rate(sweep.scenarios[i].target), r.outcomes.fail_rate(),
                static_cast<unsigned long long>(r.max_sync_gap));
  }
  h.note("expected shape: Pr[w] = 1 with k fixed at 4 for every n — contrast with");
  h.note("E7 where the random-f protocol needs k ~ sqrt(n); sync gap stays O(k):");
  h.note("the covert channel defeats the sum despite intact synchronization");
  return 0;
}
