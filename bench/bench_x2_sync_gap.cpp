// X2 (Lemmas D.3/D.5, Section 6): synchronization gaps.  Honest A-LEADuni
// runs in lock-step (gap 1); the cubic attack desynchronizes by Theta(k^2)
// — exactly the slack Theorem 5.1's proof bounds; PhaseAsyncLead's phase
// validation pins everyone to O(k) even under attack.
//
// All 15 scenarios (3 ring sizes x 5 profiles) run as one sweep.

#include <cstdio>
#include <string>
#include <vector>

#include "attacks/coalition.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("x2", "X2 / synchronization gaps",
                   "max_t (max_i Sent_i - min_i Sent_i): who stays synchronized?", argc, argv);
  h.row_header("      scenario                  n     k    max gap    k^2    2k");

  struct RowInfo {
    const char* label;
    int n;
    int k;  ///< 0 = honest
  };
  const std::vector<int> sizes = {216, 512, 1000};
  SweepSpec sweep;
  std::vector<std::string> labels;
  std::vector<RowInfo> rows;
  for (const int n : sizes) {
    const int kc = Coalition::cubic_min_k(n);
    const auto base = [n](const char* protocol, std::uint64_t seed) {
      ScenarioSpec spec;
      spec.protocol = protocol;
      spec.n = n;
      spec.trials = 5;
      spec.seed = seed;
      return spec;
    };

    sweep.add(base("alead-uni", 1));
    rows.push_back({"A-LEADuni honest", n, 0});

    ScenarioSpec cubic = base("alead-uni", 2);
    cubic.deviation = "cubic";
    cubic.coalition = CoalitionSpec::cubic_staircase(kc);
    sweep.add(cubic);
    rows.push_back({"A-LEADuni + cubic attack", n, kc});

    ScenarioSpec phase_honest = base("phase-async-lead", 3);
    phase_honest.protocol_key = 0x6a6aull + n;
    sweep.add(phase_honest);
    rows.push_back({"PhaseAsyncLead honest", n, 0});

    ScenarioSpec rushing = base("phase-async-lead", 4);
    rushing.protocol_key = 0x6a6aull + n;
    rushing.deviation = "phase-rushing";
    rushing.coalition = CoalitionSpec::equally_spaced(kc);
    sweep.add(rushing);
    rows.push_back({"PhaseAsyncLead + rushing", n, kc});

    ScenarioSpec sum = base("phase-sum-lead", 5);
    sum.deviation = "phase-sum";  // canonical k = 4 placement
    sweep.add(sum);
    rows.push_back({"PhaseSumLead + E.4 attack", n, 4});
  }
  for (const RowInfo& row : rows) labels.emplace_back(row.label);
  const auto results = h.run_sweep(sweep, labels);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowInfo& row = rows[i];
    const std::uint64_t gap = results[i].max_sync_gap;
    if (row.k > 0) {
      std::printf("%-28s %5d  %4d   %8llu   %5d  %4d\n", row.label, row.n, row.k,
                  static_cast<unsigned long long>(gap), row.k * row.k, 2 * row.k);
    } else {
      std::printf("%-28s %5d  %4s   %8llu   %5s  %4s\n", row.label, row.n, "-",
                  static_cast<unsigned long long>(gap), "-", "-");
    }
  }
  h.note("expected shape: cubic attack gap grows ~k^2 (the desync it exploits);");
  h.note("phase-validated protocols stay at O(k) even under deviation — the");
  h.note("k-synchronization PhaseAsyncLead's resilience proof rests on");
  return 0;
}
