// E7 (remark after Theorem 6.1): PhaseAsyncLead is broken by
// k = sqrt(n) + 3 equally spaced adversaries steering the random function
// through their free late data slots.  This is the tightness half of the
// Theta(sqrt(n)) claim.
//
// All five attacked sizes run as ONE sweep (Harness::run_sweep).

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
  bench::Harness h("e07", "E7 / Theorem 6.1 tightness",
                   "PhaseAsyncLead: k = sqrt(n)+3 adversaries steer f to any target", argc, argv);
  h.row_header("     n    k   min free slots   attacked Pr[w]   FAIL");

  SweepSpec sweep;
  for (const int n : {64, 100, 196, 324, 529}) {
    const int k = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))) + 3;
    ScenarioSpec spec;
    spec.protocol = "phase-async-lead";
    spec.protocol_key = 0xd00dull + n;
    spec.deviation = "phase-rushing";
    spec.coalition = CoalitionSpec::equally_spaced(k);
    spec.target = static_cast<Value>(2 * n / 3);
    spec.search_cap = 96ull * n;
    spec.n = n;
    spec.trials = 25;
    spec.seed = 3 * n;
    sweep.add(spec);
  }
  const auto results = h.run_sweep(sweep);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioSpec& spec = sweep.scenarios[i];
    const int n = spec.n;
    const int k = spec.coalition.k;
    PhaseAsyncLeadProtocol protocol(n, spec.protocol_key);
    const auto coalition = Coalition::equally_spaced(n, k);
    PhaseRushingDeviation probe(coalition, spec.target, protocol, spec.search_cap);
    int min_free = n;
    for (int j = 0; j < coalition.k(); ++j) min_free = std::min(min_free, probe.free_slots(j));
    std::printf("%6d  %4d   %14d   %14.4f   %4.2f\n", n, k, min_free,
                results[i].outcomes.leader_rate(spec.target),
                results[i].outcomes.fail_rate());
  }
  h.note("expected shape: >= 3 free slots per adversary and Pr[w] ~ 1 (paper:");
  h.note("'every adversary can control the output almost for every input')");
  return 0;
}
