// E3 (Theorem C.1): randomly located adversaries (unknown k, unknown
// distances) control A-LEADuni with high probability at density
// p = sqrt(8 ln n / n).  Rows sweep n and the detection constant C.
//
// Every sampled placement's single-trial scenario goes into ONE sweep
// (Harness::run_sweep): up to ~500 tiny scenarios share the executor's
// work queue instead of running one at a time.

#include <cmath>
#include <cstdio>
#include <vector>

#include "attacks/random_location.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e03", "E3 / Theorem C.1",
                   "A-LEADuni vs ~sqrt(8 n ln n) randomly located adversaries", argc, argv);
  h.note("success bound: 1 - n^(2-C) - delta (delta covers bad placements)");
  h.row_header("     n    C      p     E[k]   success    bound(1-n^(2-C))");

  struct Row {
    int n;
    int c_prefix;
    double p;
    double k_total = 0.0;
    std::size_t first_index = 0;  ///< window into the sweep's scenarios
    std::size_t attempts = 0;
  };
  std::vector<Row> rows;
  SweepSpec sweep;
  for (const int n : {100, 200, 400, 800}) {
    const double p = RandomLocationDeviation::recommended_density(n);
    for (const int c_prefix : {3, 4, 5}) {
      Row row{n, c_prefix, p};
      row.first_index = sweep.scenarios.size();
      for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const auto placement = CoalitionSpec::bernoulli(p, seed * 31 + c_prefix);
        const auto coalition = build_coalition(placement, n);
        if (coalition->k() < c_prefix + 2) continue;
        row.k_total += coalition->k();
        ScenarioSpec spec;
        spec.protocol = "alead-uni";
        spec.deviation = "random-location";
        spec.coalition = placement;
        spec.target = 3;
        spec.prefix = c_prefix;
        spec.n = n;
        spec.trials = 1;
        spec.seed = seed * 7919 + n;
        sweep.add(spec);
        ++row.attempts;
      }
      rows.push_back(row);
    }
  }
  const auto results = h.run_sweep(sweep);

  for (const Row& row : rows) {
    int successes = 0;
    for (std::size_t i = 0; i < row.attempts; ++i) {
      successes += results[row.first_index + i].outcomes.count(3) == 1 ? 1 : 0;
    }
    const double bound = 1.0 - std::pow(static_cast<double>(row.n), 2.0 - row.c_prefix);
    std::printf("%6d  %3d  %5.3f   %5.1f   %7.3f    %7.3f\n", row.n, row.c_prefix, row.p,
                row.attempts > 0 ? row.k_total / static_cast<double>(row.attempts) : 0.0,
                row.attempts > 0 ? static_cast<double>(successes) /
                                       static_cast<double>(row.attempts)
                                 : 0.0,
                bound);
  }
  h.note("expected shape: success ~ 1 for C >= 4 and large n; degradation only via delta");
  return 0;
}
