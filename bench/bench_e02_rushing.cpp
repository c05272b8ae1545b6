// E2 (Lemma 4.1 / Theorem 4.2): the rushing attack controls A-LEADuni with
// k >= sqrt(n) equally spaced adversaries; the precondition l_j <= k-1
// delimits exactly where the attack is defined.
//
// The whole table runs as ONE sweep (Harness::run_sweep): every
// precondition-satisfying (n, k) cell shares the executor's work queue.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "attacks/coalition.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h(
      "e02", "E2 / Lemma 4.1, Theorem 4.2",
      "A-LEADuni: k >= sqrt(n) equally spaced adversaries control the outcome", argc, argv);
  h.note("precondition: every honest segment l_j <= k-1 (equal spacing: n <= k^2)");
  h.row_header("     n     k   l_max   precond   attacked Pr[w]   FAIL");

  struct Cell {
    int n;
    int k;
    int l_max;
    bool precond;
    std::size_t sweep_index;  ///< into the sweep results; only when precond
  };
  std::vector<Cell> cells;
  SweepSpec sweep;
  for (const int n : {16, 64, 100, 256, 529, 1024}) {
    const int k_sqrt = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
    for (const int k : {k_sqrt - 1, k_sqrt, k_sqrt + 2}) {
      if (k < 2 || k >= n) continue;
      const auto coalition = Coalition::equally_spaced(n, k);
      Cell cell{n, k, coalition.max_segment_length(),
                coalition.rushing_precondition_holds(), 0};
      if (cell.precond) {
        ScenarioSpec spec;
        spec.protocol = "alead-uni";
        spec.deviation = "rushing";
        spec.coalition = CoalitionSpec::equally_spaced(k);
        spec.target = static_cast<Value>(n - 1);
        spec.n = n;
        spec.trials = 50;
        spec.seed = 11 * n + k;
        cell.sweep_index = sweep.scenarios.size();
        sweep.add(spec);
      }
      cells.push_back(cell);
    }
  }
  const auto results = h.run_sweep(sweep);

  for (const Cell& cell : cells) {
    double rate = 0.0;
    double fail = 0.0;
    if (cell.precond) {
      const ScenarioResult& r = results[cell.sweep_index];
      rate = r.outcomes.leader_rate(sweep.scenarios[cell.sweep_index].target);
      fail = r.outcomes.fail_rate();
    }
    std::printf("%6d  %4d   %5d   %7s   %14.4f   %4.2f\n", cell.n, cell.k, cell.l_max,
                cell.precond ? "yes" : "no", rate, fail);
  }
  h.note("expected shape: precond=yes rows show Pr[w] = 1.0; the boundary sits at k ~ sqrt(n)");
  return 0;
}
