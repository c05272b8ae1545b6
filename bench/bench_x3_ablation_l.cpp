// X3 (design ablation, Section 6): why l = Theta(sqrt(n))?
//
// f consumes validation values v-hat[1..n-l].  Two attack channels compete:
//  * rushing/free-slot steering (E7) needs k ~ sqrt(n), independent of l,
//    but only works when the adversary knows v-hat[1..n-l] before its free
//    slots — i.e. when l is large enough (l > ~k);
//  * late-validation steering needs k = l *consecutive* members (the
//    validator of round n-l chooses an f input after everything else is
//    determined).
// The protocol is only as strong as the cheaper channel: min(sqrt(n), l).
// Small l hands the election to constant coalitions; l = Theta(sqrt(n))
// balances the two at the sqrt(n) the paper proves optimal.
//
// Both attack channels across every l run as ONE sweep (Harness::run_sweep).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/random_function.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  const int n = 196;
  const int k_rush = static_cast<int>(std::sqrt(static_cast<double>(n))) + 3;  // 17
  bench::Harness h("x3", "X3 / ablation: the l parameter of PhaseAsyncLead (n=196)",
                   "two attack channels vs l; the protocol is as weak as the cheaper one",
                   argc, argv);
  h.row_header(
      "     l   rushing k=17 Pr[w]   late-val k=l Pr[w]   cheapest breaking k");

  const Value w = 77;
  const int l_default = RandomFunction::default_l(n);
  const std::vector<int> ls = {4, 8, 16, 48, 96, l_default};
  SweepSpec sweep;
  std::vector<std::string> labels;
  for (const int l : ls) {
    ScenarioSpec rush;
    rush.protocol = "phase-async-lead";
    rush.protocol_key = 0xab1e + l;
    rush.param_l = l;
    rush.deviation = "phase-rushing";
    rush.coalition = CoalitionSpec::equally_spaced(k_rush);
    rush.target = w;
    rush.search_cap = 96ull * n;
    rush.n = n;
    rush.trials = 12;
    rush.seed = l;
    sweep.add(rush);
    labels.emplace_back("rushing");

    ScenarioSpec late;
    late.protocol = "phase-async-lead";
    late.protocol_key = 0xab1e + l;
    late.param_l = l;
    late.deviation = "phase-late-validation";  // canonical l-consecutive coalition
    late.target = w;
    late.n = n;
    late.trials = 12;
    late.seed = 2 * l + 1;
    sweep.add(late);
    labels.emplace_back("late-validation");
  }
  const auto results = h.run_sweep(sweep, labels);

  for (std::size_t i = 0; i < ls.size(); ++i) {
    const int l = ls[i];
    const double rush_rate = results[2 * i].outcomes.leader_rate(w);
    const double late_rate = results[2 * i + 1].outcomes.leader_rate(w);
    const int cheapest = std::min(rush_rate > 0.5 ? k_rush : n, late_rate > 0.5 ? l : n);
    std::printf("%6d   %18.3f   %18.3f   %19d\n", l, rush_rate, late_rate, cheapest);
  }
  h.note("expected shape: late-val column is 1.0 everywhere with k = l members;");
  h.note("rushing column turns on once l > ~k (the adversary must know the");
  h.note("v-hat prefix before its free slots).  The cheapest breaking coalition");
  h.note("is min(l, sqrt(n)+3): maximized by l = Theta(sqrt(n)) — the paper's");
  h.note("choice l = ceil(10 sqrt(n)) sits on the plateau.");
  return 0;
}
