// X1 (the headline comparison): attack success vs coalition size k for
// A-LEADuni and PhaseAsyncLead on the same ring.  A-LEADuni's crossover
// sits at k ~ 2 n^(1/3) (cubic attack); PhaseAsyncLead's at k ~ sqrt(n)
// (free-slot steering): the paper's improvement made quantitative.
//
// Every (protocol, k) cell runs in ONE sweep (Harness::run_sweep).

#include <cstdio>
#include <string>
#include <vector>

#include "attacks/coalition.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  const int n = 343;  // 7^3: cubic threshold ~ 13, sqrt threshold ~ 19
  bench::Harness h("x1", "X1 / crossover figure",
                   "Attack success vs k at n = 343 (cubic root 7, sqrt 18.5)", argc, argv);
  h.row_header("    k   A-LEADuni Pr[w]   PhaseAsyncLead Pr[w]   (w = 100)");

  const Value w = 100;
  const std::vector<int> ks = {4, 8, 10, 12, 13, 14, 16, 18, 20, 22, 26, 30};
  struct Row {
    int k;
    std::size_t alead_index = static_cast<std::size_t>(-1);  ///< -1 = not applicable
    std::size_t phase_index = 0;
  };
  std::vector<Row> rows;
  SweepSpec sweep;
  std::vector<std::string> labels;
  for (const int k : ks) {
    Row row{k};
    // A-LEADuni: the strongest applicable attack at this k is the cubic
    // staircase (falls back to "not applicable" below its threshold).
    if (k >= Coalition::cubic_min_k(n)) {
      ScenarioSpec spec;
      spec.protocol = "alead-uni";
      spec.deviation = "cubic";
      spec.coalition = CoalitionSpec::cubic_staircase(k);
      spec.target = w;
      spec.n = n;
      spec.trials = 15;
      spec.seed = 1000 + k;
      row.alead_index = sweep.scenarios.size();
      sweep.add(spec);
      labels.emplace_back("alead-cubic");
    }
    // PhaseAsyncLead: rushing + steering (gains nothing without free slots).
    ScenarioSpec spec;
    spec.protocol = "phase-async-lead";
    spec.protocol_key = 0xc805ull;
    spec.deviation = "phase-rushing";
    spec.coalition = CoalitionSpec::equally_spaced(k);
    spec.target = w;
    spec.search_cap = 64ull * n;
    spec.n = n;
    spec.trials = 15;
    spec.seed = 2000 + k;
    row.phase_index = sweep.scenarios.size();
    sweep.add(spec);
    labels.emplace_back("phase-rushing");
    rows.push_back(row);
  }
  const auto results = h.run_sweep(sweep, labels);

  for (const Row& row : rows) {
    const double alead_rate = row.alead_index != static_cast<std::size_t>(-1)
                                  ? results[row.alead_index].outcomes.leader_rate(w)
                                  : 0.0;
    const double phase_rate = results[row.phase_index].outcomes.leader_rate(w);
    std::printf("%5d   %15.3f   %20.3f\n", row.k, alead_rate, phase_rate);
  }
  h.note("expected shape: A-LEADuni column jumps to 1 at k ~ 13 (= cubic_min_k),");
  h.note("PhaseAsyncLead column jumps at k ~ 19+ (sqrt(n)): the protocol buys");
  h.note("a polynomially wider resilience band, exactly the paper's contribution");
  return 0;
}
