// E4 (Theorem 4.3): the Cubic Attack controls A-LEADuni with
// k = Theta(n^(1/3)) adversarially placed adversaries, and terminates for
// every staircase size (Lemma 4.4).
//
// The n-sweep runs as one executor submission (api/sweep.h): small rings
// finish early and their workers steal chunks from the n=4096 scenario.

#include <cmath>
#include <cstdio>
#include <vector>

#include "attacks/coalition.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h(
      "e04", "E4 / Theorem 4.3 (Cubic Attack)",
      "A-LEADuni: k = Theta(n^(1/3)) staircase adversaries control the outcome", argc, argv);
  h.row_header("      n     k   2*n^(1/3)   attacked Pr[w]   FAIL   sync gap");

  const std::vector<int> sizes = {64, 128, 256, 512, 1024, 2048, 4096};
  SweepSpec sweep;
  for (const int n : sizes) {
    const int k = Coalition::cubic_min_k(n);
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.deviation = "cubic";
    spec.coalition = CoalitionSpec::cubic_staircase(k);
    spec.target = static_cast<Value>(n / 2);
    spec.n = n;
    spec.trials = 25;
    spec.seed = n;
    sweep.add(spec);
  }
  const auto results = h.run_sweep(sweep);

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int n = sizes[i];
    const ScenarioResult& r = results[i];
    std::printf("%7d  %4d   %9.1f   %14.4f   %4.2f   %8llu\n", n,
                Coalition::cubic_min_k(n), 2.0 * std::cbrt(static_cast<double>(n)),
                r.outcomes.leader_rate(sweep.scenarios[i].target), r.outcomes.fail_rate(),
                static_cast<unsigned long long>(r.max_sync_gap));
  }
  h.note("expected shape: Pr[w] = 1 with k tracking ~2 n^(1/3); gap = Theta(k^2),");
  h.note("the k^2-desynchronization the attack needs (paper Section 6 discussion)");
  return 0;
}
