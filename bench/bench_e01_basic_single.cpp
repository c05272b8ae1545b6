// E1 (Claim B.1): Basic-LEAD falls to a single adversary.
// Rows: n, target w, honest Pr[w], attacked Pr[w], FAIL rate.
//
// The whole table runs as ONE sweep: honest 2000-trial baselines and
// 200-trial attacked runs share the executor's work queue (api/sweep.h).

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e01", "E1 / Claim B.1",
                   "Basic-LEAD: one adversary forces any outcome", argc, argv);
  h.note("paper: Pr[outcome = w] = 1 for every target w (honest: 1/n)");
  h.row_header("     n   target   honest Pr[w]   attacked Pr[w]   FAIL");

  const std::vector<int> sizes = {8, 32, 128, 256};
  SweepSpec sweep;
  std::vector<std::string> labels;
  for (const int n : sizes) {
    ScenarioSpec honest;
    honest.protocol = "basic-lead";
    honest.n = n;
    honest.trials = 2000;
    honest.seed = 42;
    sweep.add(honest);
    labels.emplace_back("honest");

    for (const Value w : {Value{0}, static_cast<Value>(n / 2)}) {
      ScenarioSpec attacked = honest;
      attacked.deviation = "basic-single";
      attacked.coalition = CoalitionSpec::consecutive(1, /*first=*/n / 3 + 1);
      attacked.target = w;
      attacked.trials = 200;
      attacked.seed = 7 * n + w;
      sweep.add(attacked);
      labels.emplace_back("attacked");
    }
  }
  const auto results = h.run_sweep(sweep, labels);

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int n = sizes[i];
    const ScenarioResult& honest_r = results[3 * i];
    for (int t = 0; t < 2; ++t) {
      const ScenarioResult& r = results[3 * i + 1 + static_cast<std::size_t>(t)];
      const Value w = sweep.scenarios[3 * i + 1 + static_cast<std::size_t>(t)].target;
      std::printf("%6d   %6llu   %12.4f   %14.4f   %4.2f\n", n,
                  static_cast<unsigned long long>(w), honest_r.outcomes.leader_rate(w),
                  r.outcomes.leader_rate(w), r.outcomes.fail_rate());
    }
  }
  h.note("expected shape: attacked Pr[w] = 1.0000 in every row");
  return 0;
}
