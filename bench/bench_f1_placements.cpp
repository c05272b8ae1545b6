// F1 (Figure 1): adversary locations on the ring — the placement gallery
// with honest segment profiles for every placement family used in attacks.
// Placements are built through the Scenario API's CoalitionSpec.

#include <cstdio>

#include "attacks/coalition.h"
#include "attacks/random_location.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("f1", "F1 / Figure 1", "Coalition placements and honest segments I_j",
                   argc, argv);

  const int n = 60;
  const auto show = [&](const char* label, const CoalitionSpec& spec) {
    const auto c = build_coalition(spec, n);
    std::printf("  %s\n", c->render().c_str());
    bench::JsonObject row;
    row.set("label", label)
        .set("n", n)
        .set("k", c->k())
        .set("l_min", c->min_segment_length())
        .set("l_max", c->max_segment_length())
        .set("rushing_precond", c->rushing_precondition_holds());
    h.add_row(row);
    return *c;
  };

  h.note("consecutive (Claim D.1 setting):");
  const auto consecutive = show("consecutive", CoalitionSpec::consecutive(6, 3));
  h.note("equally spaced (Lemma 4.1 / rushing):");
  const auto equal8 = show("equal k=8", CoalitionSpec::equally_spaced(8));
  h.note("cubic staircase (Theorem 4.3):");
  const auto cubic =
      show("cubic", CoalitionSpec::cubic_staircase(Coalition::cubic_min_k(n)));
  h.note("Bernoulli(p) random (Theorem C.1), p = sqrt(8 ln n / n):");
  const double p = RandomLocationDeviation::recommended_density(n);
  const auto bernoulli = show("bernoulli", CoalitionSpec::bernoulli(p, 7));

  h.row_header("placement         k    l_min  l_max  rushing-precond");
  const auto report = [&](const char* name, const Coalition& c) {
    std::printf("%-16s %4d   %5d  %5d  %15s\n", name, c.k(), c.min_segment_length(),
                c.max_segment_length(), c.rushing_precondition_holds() ? "yes" : "no");
  };
  report("consecutive", consecutive);
  report("equal k=8", equal8);
  report("equal k=5", *build_coalition(CoalitionSpec::equally_spaced(5), n));
  report("cubic", cubic);
  report("bernoulli", bernoulli);
  return 0;
}
