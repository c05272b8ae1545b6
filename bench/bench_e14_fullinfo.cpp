// E14 (related work, reproduced): the full-information comparators.
// Saks' pass-the-baton tolerates near-linear coalitions (O(n / log n));
// the one-round majority coin leaks Theta(k / sqrt(n)) bias.  Both assume
// the (strong) broadcast full-information model — the paper's ring
// protocols achieve sqrt(n) resilience with message passing only.
//
// Both tables (12 scenarios, 4000–20000 trials each) run as ONE sweep.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "fullinfo/majority.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e14", "E14 / full-information comparators (Saks, Ben-Or & Linial)",
                   "Bias vs coalition size in the broadcast model", argc, argv);

  const int baton_n = 64;
  const std::vector<int> baton_ks = {0, 2, 4, 8, 16, 32};
  struct MajorityCell {
    int n;
    int k;
  };
  std::vector<MajorityCell> majority_cells;

  SweepSpec sweep;
  sweep.threads = 0;
  std::vector<std::string> labels;
  for (const int k : baton_ks) {
    ScenarioSpec spec;
    spec.topology = TopologyKind::kFullInfo;
    spec.protocol = "baton";
    spec.n = baton_n;
    spec.trials = 4000;
    spec.seed = 2024 + k;
    spec.target = static_cast<Value>(baton_n - 1);
    if (k > 0) {
      spec.deviation = "baton-greedy";
      std::vector<ProcessorId> members;
      for (int i = 1; i <= k; ++i) members.push_back(i);
      spec.coalition = CoalitionSpec::custom(members);
    }
    sweep.add(spec);
    labels.emplace_back("baton");
  }
  for (const int n : {49, 225}) {
    for (const int k : {2, 4, 8}) {
      ScenarioSpec spec;
      spec.topology = TopologyKind::kFullInfo;
      spec.protocol = "majority-coin";
      spec.deviation = "majority-target";
      std::vector<ProcessorId> members;
      for (int i = 0; i < k; ++i) members.push_back(i);
      spec.coalition = CoalitionSpec::custom(members);
      spec.target = 1;
      spec.n = n;
      spec.trials = 20000;
      spec.seed = 7 * n + k;
      sweep.add(spec);
      labels.emplace_back("majority");
      majority_cells.push_back({n, k});
    }
  }
  const auto results = h.run_sweep(sweep, labels);

  h.row_header("baton n=64:    k   Pr[target wins]   honest 1/(n-1)");
  for (std::size_t i = 0; i < baton_ks.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::printf("%17d   %15.4f   %14.4f\n", baton_ks[i],
                r.outcomes.leader_rate(sweep.scenarios[i].target), 1.0 / (baton_n - 1));
  }
  h.note("expected shape: influence grows slowly — the baton resists much larger");
  h.note("coalitions than sqrt(n) (Saks: O(n/log n)), at broadcast-model cost");

  h.row_header("majority:     n     k   measured bias   binomial exact   k/sqrt(2 pi n)");
  for (std::size_t i = 0; i < majority_cells.size(); ++i) {
    const auto [n, k] = majority_cells[i];
    const ScenarioResult& r = results[baton_ks.size() + i];
    const double ones =
        static_cast<double>(r.outcomes.count(1)) / static_cast<double>(r.trials);
    std::printf("%19d  %4d   %13.4f   %14.4f   %14.4f\n", n, k, ones - 0.5,
                majority_bias_estimate(n, k), k / std::sqrt(2.0 * M_PI * n));
  }
  h.note("expected shape: measured = exact binomial = Gaussian k/sqrt(2 pi n):");
  h.note("single-round coins leak linearly in k — the reason the paper's ring");
  h.note("protocols never let a round's value be decided by a vote");
  return 0;
}
