// E11 (Theorem 8.1): FLE <-> coin toss reductions measured over real
// PhaseAsyncLead elections, with the theorem's bias-amplification bounds.
// Per-trial outcomes come from record_outcomes scenarios — the reductions
// are outcome-level adapters over the recorded elections.
//
// All five recorded-election scenarios run as ONE sweep
// (Harness::run_sweep); per-row derived columns use annotate_row.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/reductions.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e11", "E11 / Theorem 8.1",
                   "Leader election <-> coin toss reductions", argc, argv);

  const std::vector<int> coin_sizes = {8, 16, 64};
  const std::vector<int> election_sizes = {8, 16};
  SweepSpec sweep;
  sweep.threads = 0;
  std::vector<std::string> labels;
  for (const int n : coin_sizes) {
    ScenarioSpec spec;
    spec.protocol = "phase-async-lead";
    spec.protocol_key = 0xc0141ull + n;
    spec.n = n;
    spec.trials = 3000;
    spec.seed = 37 * n + 11;
    spec.record_outcomes = true;
    sweep.add(spec);
    labels.emplace_back("coin-from-election");
  }
  for (const int n : election_sizes) {
    const int tosses = tosses_needed(n);
    ScenarioSpec spec;
    spec.protocol = "phase-async-lead";
    spec.protocol_key = 0x7055ull + n;
    spec.n = n;
    spec.trials = static_cast<std::size_t>(1500) * tosses;
    spec.seed = 101 * n + 3;
    spec.record_outcomes = true;
    sweep.add(spec);
    labels.emplace_back("election-from-coins");
  }
  const auto results = h.run_sweep(sweep, labels);

  h.row_header("     n   trials   Pr[coin=1] (from election parity)   |bias|");
  for (std::size_t i = 0; i < coin_sizes.size(); ++i) {
    const int n = coin_sizes[i];
    const ScenarioResult& r = results[i];
    int ones = 0;
    for (const Outcome& o : r.per_trial) {
      if (coin_from_leader(o) == CoinResult::kOne) ++ones;
    }
    const double rate = static_cast<double>(ones) / static_cast<double>(r.trials);
    h.annotate_row(i, "coin_one_rate", rate);
    std::printf("%6d   %6zu   %33.4f   %6.4f\n", n, r.trials, rate, std::abs(rate - 0.5));
  }
  h.note("expected shape: Pr[coin=1] ~ 1/2 (paper bound: 1/2 + n*eps/2, eps ~ 0)");

  h.row_header("     n   tosses   election max bias (from coins)   bound (1/2+eps)^log2(n)");
  for (std::size_t i = 0; i < election_sizes.size(); ++i) {
    const int n = election_sizes[i];
    const int tosses = tosses_needed(n);
    const int elections = 1500;
    const ScenarioResult& r = results[coin_sizes.size() + i];
    std::vector<int> counts(static_cast<std::size_t>(n), 0);
    for (int t = 0; t < elections; ++t) {
      std::vector<CoinResult> coins;
      for (int b = 0; b < tosses; ++b) {
        coins.push_back(coin_from_leader(r.per_trial[static_cast<std::size_t>(t) * tosses + b]));
      }
      const Outcome leader = leader_from_coins(coins, n);
      if (leader.valid()) ++counts[static_cast<std::size_t>(leader.leader())];
    }
    double max_rate = 0.0;
    for (const int c : counts) {
      max_rate = std::max(max_rate, static_cast<double>(c) / elections);
    }
    h.annotate_row(coin_sizes.size() + i, "election_max_bias", max_rate - 1.0 / n);
    std::printf("%6d   %6d   %30.4f   %23.4f\n", n, tosses, max_rate - 1.0 / n,
                election_probability_bound_from_coins(0.02, n) - 1.0 / n);
  }
  h.note("expected shape: measured bias within the theorem's amplification bound");
  return 0;
}
