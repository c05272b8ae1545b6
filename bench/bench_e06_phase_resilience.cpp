// E6 (Theorem 6.1): PhaseAsyncLead is resilient for k = O(sqrt(n)).  The
// strongest known deviation (rushing + free-slot steering) gains nothing
// below the threshold: no free slots exist, segments decohere, executions
// FAIL — which solution preference makes worthless to rational coalitions.
//
// Honest baselines and sub-threshold attacked runs all share ONE sweep
// (Harness::run_sweep): the big honest histograms no longer strand workers
// while the 30-trial attacked cells run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "attacks/coalition.h"
#include "attacks/phase_rushing.h"
#include "harness.h"
#include "protocols/phase_async_lead.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e06", "E6 / Theorem 6.1",
                   "PhaseAsyncLead resilience: sub-sqrt(n) coalitions gain nothing", argc, argv);
  h.row_header("     n    k   free slots   Pr[w]   FAIL   honest Pr[w]-1/n");

  struct AttackCell {
    int n;
    int k;
    std::size_t honest_index;
    std::size_t sweep_index;
  };
  std::vector<AttackCell> cells;
  SweepSpec sweep;
  sweep.threads = 0;
  std::vector<std::string> labels;
  for (const int n : {100, 256, 400, 784}) {
    const Value w = static_cast<Value>(n / 4);
    ScenarioSpec honest;
    honest.protocol = "phase-async-lead";
    honest.protocol_key = 0xfadeull + n;
    honest.n = n;
    honest.trials =
        std::max<std::size_t>(100, 50'000'000ull / (static_cast<std::size_t>(n) * n));
    honest.seed = n;
    const std::size_t honest_index = sweep.scenarios.size();
    sweep.add(honest);
    labels.emplace_back("honest");

    // Sub-threshold coalition sizes: fractions of sqrt(n) (Theorem 6.1's
    // regime is k <= sqrt(n)/10; we sweep up to ~2/3 sqrt(n), all of which
    // leave zero free slots under equal spacing).
    const int s = static_cast<int>(std::sqrt(static_cast<double>(n)));
    for (const int k : {std::max(2, s / 4), std::max(3, s / 2), std::max(4, 2 * s / 3)}) {
      ScenarioSpec spec = honest;
      spec.deviation = "phase-rushing";
      spec.coalition = CoalitionSpec::equally_spaced(k);
      spec.target = w;
      spec.trials = 30;
      spec.seed = 13 * n + k;
      cells.push_back({n, k, honest_index, sweep.scenarios.size()});
      sweep.add(spec);
      labels.emplace_back("attacked");
    }
  }
  const auto results = h.run_sweep(sweep, labels);

  for (const AttackCell& cell : cells) {
    const ScenarioSpec& spec = sweep.scenarios[cell.sweep_index];
    const ScenarioResult& r = results[cell.sweep_index];
    const ScenarioResult& honest_r = results[cell.honest_index];
    // Free-slot count for the table: from the deviation itself.
    PhaseAsyncLeadProtocol protocol(cell.n, spec.protocol_key);
    PhaseRushingDeviation probe(Coalition::equally_spaced(cell.n, cell.k), spec.target,
                                protocol);
    std::printf("%6d  %3d   %10d   %5.3f   %4.2f   %16.5f\n", cell.n, cell.k,
                probe.free_slots(0), r.outcomes.leader_rate(spec.target),
                r.outcomes.fail_rate(),
                honest_r.outcomes.leader_rate(spec.target) - 1.0 / cell.n);
  }
  h.note("expected shape: free slots = 0, Pr[w] ~ 0, FAIL ~ 1 in the resilient band");
  return 0;
}
