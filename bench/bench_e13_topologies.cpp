// E13 (Section 1.1 related work, reproduced): resilience thresholds across
// network topologies.  The asynchronous fully-connected network supports
// k = n/2 - 1 via Shamir sharing; the ring only Theta(sqrt(n)).  Both
// boundaries are exhibited by live attacks.
//
// All 12 attacked cells run as ONE sweep (Harness::run_sweep).

#include <cstdio>
#include <string>
#include <vector>

#include "attacks/shamir_attacks.h"
#include "harness.h"
#include "protocols/shamir_lead.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e13", "E13 / related-work baseline (Abraham et al. via Shamir)",
                   "Fully-connected async FLE: resilient to n/2-1, broken at n/2", argc, argv);
  h.row_header(
      "     n    k         attack        possible   Pr[w]   FAIL   (w = n-1)");

  struct Cell {
    int n;
    int k;
    const char* name;
    bool forge;
  };
  std::vector<Cell> cells;
  SweepSpec sweep;
  std::vector<std::string> labels;
  for (const int n : {8, 12, 16, 24}) {
    ShamirLeadProtocol protocol(n);
    const Value w = static_cast<Value>(n - 1);
    const int t = protocol.params().t;
    const Cell rows[] = {
        {n, (n + 1) / 2 - 1, "forge (k=n/2-1)", true},   // resilient regime
        {n, (n + 1) / 2, "forge (k=n/2)", true},          // impossibility boundary
        {n, t, "rushing (k=t)", false},                   // reconstruction regime
    };
    for (const Cell& row : rows) {
      ScenarioSpec spec;
      spec.topology = TopologyKind::kGraph;
      spec.protocol = "shamir-lead";
      spec.deviation = row.forge ? "shamir-forge" : "shamir-rushing";
      spec.coalition = CoalitionSpec::consecutive(row.k, row.forge ? 0 : 1);
      spec.target = w;
      spec.n = n;
      spec.trials = 20;
      spec.seed = 17 * n + row.k;
      cells.push_back(row);
      sweep.add(spec);
      labels.emplace_back(row.name);
    }
  }
  const auto results = h.run_sweep(sweep, labels);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    ShamirLeadProtocol protocol(cell.n);
    const Value w = static_cast<Value>(cell.n - 1);
    bool possible;
    if (cell.forge) {
      ShamirForgeDeviation probe(Coalition::consecutive(cell.n, cell.k, 0), w, protocol);
      possible = probe.forging_possible();
    } else {
      ShamirRushingDeviation probe(Coalition::consecutive(cell.n, cell.k, 1), w, protocol);
      possible = probe.reconstruction_possible();
    }
    const ScenarioResult& r = results[i];
    std::printf("%6d  %3d   %18s   %8s   %5.2f   %4.2f\n", cell.n, cell.k, cell.name,
                possible ? "yes" : "no", r.outcomes.leader_rate(w),
                r.outcomes.fail_rate());
  }
  h.note("expected shape: Pr[w] jumps 0 -> 1 exactly at k = ceil(n/2) (forge)");
  h.note("and k = floor(n/2)+1 (rushing); below, attacks fail or give no gain.");
  h.note("Contrast: the ring tops out at Theta(sqrt(n)) (E7) — topology buys");
  h.note("resilience: fully-connected n/2 >> ring sqrt(n) >> tree k (Thm 7.2)");
  return 0;
}
