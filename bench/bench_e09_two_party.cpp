// E9 (Lemma F.2): every finite two-party coin-toss protocol has an assuring
// player; fair protocols included.  Table: over random protocol trees, how
// often each assurance pattern occurs, and verification that both
// disjunctions of the lemma hold universally.  The last-mover dictatorship
// is additionally exercised live through the Scenario API's tree topology —
// all 14 force-0/force-1 scenarios run as ONE sweep (Harness::run_sweep).

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "trees/tree_protocols.h"
#include "trees/two_party.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e09", "E9 / Lemma F.2",
                   "Two-party coin toss: an assuring player always exists", argc, argv);
  h.row_header(" depth   trees   disj1   disj2   dictator   A-assures   B-assures");

  for (const int depth : {2, 3, 4, 6, 8}) {
    const int trees = 300;
    int disj1 = 0, disj2 = 0, dictator = 0, a_any = 0, b_any = 0;
    for (std::uint64_t seed = 0; seed < trees; ++seed) {
      const auto g = GameTree::random(2, depth, 3, seed * 131 + depth);
      const auto r = solve_two_party(g);
      disj1 += r.disjunction_one() ? 1 : 0;
      disj2 += r.disjunction_two() ? 1 : 0;
      dictator += r.has_dictator() ? 1 : 0;
      a_any += (r.a_assures_0 || r.a_assures_1) ? 1 : 0;
      b_any += (r.b_assures_0 || r.b_assures_1) ? 1 : 0;
    }
    std::printf("%6d   %5d   %5d   %5d   %8d   %9d   %9d\n", depth, trees, disj1, disj2,
                dictator, a_any, b_any);
    bench::JsonObject row;
    row.set("label", "lemma-f2-sweep")
        .set("depth", depth)
        .set("trees", trees)
        .set("disj1", disj1)
        .set("disj2", disj2)
        .set("dictator", dictator);
    h.add_row(row);
  }

  h.note("expected shape: disj1 = disj2 = trees in every row (the lemma);");
  h.note("alternating-XOR sanity: the last mover dictates at every round count,");
  h.note("sampled live via the tree-topology scenario (both target bits forced)");
  h.row_header(" rounds   last mover forces 0   last mover forces 1   first assures anything");

  const std::vector<int> round_counts = {1, 2, 3, 4, 5, 6, 7};
  SweepSpec sweep;
  std::vector<std::string> labels;
  for (const int rounds : round_counts) {
    ScenarioSpec spec;
    spec.topology = TopologyKind::kTree;
    spec.protocol = "alternating-xor";
    spec.deviation = "xor-last-mover";
    spec.rounds = rounds;
    spec.n = 2;
    spec.trials = 64;
    spec.seed = 100 + rounds;
    spec.target = 0;
    sweep.add(spec);
    labels.emplace_back("force-0");
    spec.target = 1;
    sweep.add(spec);
    labels.emplace_back("force-1");
  }
  const auto results = h.run_sweep(sweep, labels);

  for (std::size_t i = 0; i < round_counts.size(); ++i) {
    const int rounds = round_counts[i];
    const ScenarioResult& zero = results[2 * i];
    const ScenarioResult& one = results[2 * i + 1];
    const bool forces0 = zero.outcomes.count(0) == zero.trials;
    const bool forces1 = one.outcomes.count(1) == one.trials;

    const auto g = alternating_xor_game(rounds);
    const std::uint32_t last_mask = ((rounds - 1) % 2 == 0) ? 0b01u : 0b10u;
    const std::uint32_t first_mask = 0b11u ^ last_mask;
    const bool first_any = g.assures(first_mask, 0) || g.assures(first_mask, 1);
    std::printf("%7d   %19s   %19s   %22s\n", rounds, forces0 ? "yes" : "NO",
                forces1 ? "yes" : "NO", first_any ? "YES" : "no");
  }
  return 0;
}
