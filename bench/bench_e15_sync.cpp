// E15 (Section 1.1, reproduced): the synchronous scenarios.  Abraham et
// al.'s synchronous fully-connected and ring elections are optimally
// resilient (k = n-1): synchrony makes "wait, then choose" structurally
// impossible and silence detectable.  The full four-scenario resilience
// ladder is now measured end to end.
//
// All six (n, deviation) cells run as ONE sweep (Harness::run_sweep).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e15", "E15 / Section 1.1 synchronous scenarios",
                   "Sync broadcast & ring elections: optimal k = n-1 resilience", argc, argv);

  const std::vector<int> sizes = {8, 16, 32};
  SweepSpec sweep;
  sweep.threads = 0;
  std::vector<std::string> labels;
  for (const int n : sizes) {
    // (a) n-1 colluders with blind fixed values: outcome stays uniform.
    {
      ScenarioSpec spec;
      spec.topology = TopologyKind::kSync;
      spec.protocol = "sync-broadcast-lead";
      spec.deviation = "sync-blind-collusion";
      std::vector<ProcessorId> members;  // everyone except the lone honest n/2
      for (ProcessorId p = 0; p < n; ++p) {
        if (p != n / 2) members.push_back(p);
      }
      spec.coalition = CoalitionSpec::custom(members);
      spec.n = n;
      spec.trials = 2000;
      spec.seed = 31 * n;
      sweep.add(spec);
      labels.emplace_back("blind-collusion");
    }
    // (b) one late broadcaster (the async-winning rushing move): detected.
    {
      ScenarioSpec spec;
      spec.topology = TopologyKind::kSync;
      spec.protocol = "sync-broadcast-lead";
      spec.deviation = "sync-late-broadcast";
      spec.coalition = CoalitionSpec::consecutive(1, 1);
      spec.n = n;
      spec.trials = 50;
      spec.seed = 7 * n + 1;
      sweep.add(spec);
      labels.emplace_back("late-broadcast");
    }
  }
  const auto results = h.run_sweep(sweep, labels);

  h.row_header("     n   deviation              valid   FAIL   max bias");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int n = sizes[i];
    {
      const ScenarioResult& r = results[2 * i];
      double max_rate = 0;
      for (Value j = 0; j < static_cast<Value>(n); ++j) {
        max_rate = std::max(max_rate, r.outcomes.leader_rate(j));
      }
      std::printf("%6d   %-22s %5.2f   %4.2f   %8.4f\n", n, "k=n-1 blind collusion",
                  1.0 - r.outcomes.fail_rate(), r.outcomes.fail_rate(),
                  max_rate - 1.0 / n);
    }
    {
      const ScenarioResult& r = results[2 * i + 1];
      std::printf("%6d   %-22s %5.2f   %4.2f   %8s\n", n, "k=1 late broadcast",
                  1.0 - r.outcomes.fail_rate(), r.outcomes.fail_rate(), "-");
    }
  }
  h.note("expected shape: blind collusion leaves bias ~ 0 even at k = n-1;");
  h.note("the rushing move that wins in asynchrony is detected 100% here.");
  h.note("Resilience ladder, all measured: sync n-1 > async-FC n/2 >");
  h.note("async ring sqrt(n) [PhaseAsyncLead] > n^(1/3) [A-LEADuni] > tree k");
  return 0;
}
