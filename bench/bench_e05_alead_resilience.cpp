// E5 (Theorem 5.1): A-LEADuni is resilient for k <= n^(1/4)/4.  Below every
// attack's requirement the coalition gains nothing: attack preconditions
// fail outright, and honest executions stay unbiased.
//
// The three big honest baselines run as ONE sweep (Harness::run_sweep).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "attacks/coalition.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e05", "E5 / Theorem 5.1",
                   "A-LEADuni resilience regime: k <= n^(1/4)/4 cannot be attacked", argc, argv);
  h.row_header(
      "      n    k0=n^(1/4)/4   rushing-k-needed   cubic-k-needed   honest Pr[w]-1/n");

  const std::vector<int> sizes = {256, 1024, 4096};
  SweepSpec sweep;
  sweep.threads = 0;  // hardware concurrency for the whole batch
  for (const int n : sizes) {
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.n = n;
    // Keep total delivered messages ~ 10^8: enough trials to bound the
    // fixed-target deviation well below any exploitable bias.
    spec.trials = std::max<std::size_t>(60, 100'000'000ull /
                                                (static_cast<std::size_t>(n) * n));
    spec.seed = n;
    sweep.add(spec);
  }
  const auto results = h.run_sweep(sweep);

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int n = sizes[i];
    const double k0 = std::pow(static_cast<double>(n), 0.25) / 4.0;
    int rushing_k = 1;
    while (!Coalition::equally_spaced(n, rushing_k + 1).rushing_precondition_holds() &&
           rushing_k + 1 < n - 1) {
      ++rushing_k;
    }
    const int cubic_k = Coalition::cubic_min_k(n);
    // Fixed-target deviation from 1/n: the eps of eps-k-unbiasedness for a
    // specific w (max-over-j needs >> n trials to separate from noise).
    const Value w = static_cast<Value>(n / 2);
    std::printf("%7d   %12.2f   %16d   %14d   %16.5f\n", n, k0, rushing_k + 1, cubic_k,
                results[i].outcomes.leader_rate(w) - 1.0 / n);
  }
  h.note("expected shape: both attack thresholds sit far above k0 = n^(1/4)/4;");
  h.note("the gap between k0 and cubic-k-needed is the open band of Conjecture 4.7");
  return 0;
}
