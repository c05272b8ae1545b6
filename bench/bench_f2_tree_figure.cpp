// F2 (Figure 2): the k-simulated tree example (k = 4) with the Definition
// 7.1 checker run on it, plus the ring-as-two-arcs simulation.

#include <cstdio>

#include "harness.h"
#include "trees/partition.h"
#include "trees/simulated_tree.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("f2", "F2 / Figure 2",
                   "A k-simulated tree with k = 4 (Definition 7.1)", argc, argv);

  const auto ex = figure2_example();
  std::printf("graph: %d vertices, %zu edges, connected=%s\n", ex.graph.n(),
              ex.graph.edge_count(), ex.graph.connected() ? "yes" : "no");
  std::printf("tree:  %d vertices, is_tree=%s\n", ex.simulation.tree.n(),
              ex.simulation.tree.is_tree() ? "yes" : "no");
  const auto parts = ex.simulation.parts();
  for (std::size_t t = 0; t < parts.size(); ++t) {
    std::printf("  part %zu (tree vertex %zu): {", t, t);
    for (std::size_t i = 0; i < parts[t].size(); ++i) {
      std::printf("%s%d", i ? "," : "", parts[t][i]);
    }
    std::printf("}\n");
  }
  std::printf("width (k witnessed): %d\n", ex.simulation.width());
  std::printf("valid 4-simulation:  %s\n",
              is_valid_simulation(ex.graph, ex.simulation, 4) ? "yes" : "NO");
  std::printf("valid 3-simulation:  %s (should be NO: width is 4)\n",
              is_valid_simulation(ex.graph, ex.simulation, 3) ? "yes" : "NO");
  {
    bench::JsonObject row;
    row.set("label", "figure2")
        .set("n", ex.graph.n())
        .set("width", ex.simulation.width())
        .set("valid_4", is_valid_simulation(ex.graph, ex.simulation, 4))
        .set("valid_3", is_valid_simulation(ex.graph, ex.simulation, 3));
    h.add_row(row);
  }

  h.note("ring as a ceil(n/2)-simulated tree (the Abraham et al. special case):");
  h.row_header("  ring n   arcs   width   valid");
  for (const int n : {4, 9, 16, 101}) {
    const auto sim = ring_as_two_arc_simulation(n);
    const bool valid = is_valid_simulation(Graph::ring(n), sim, (n + 1) / 2);
    std::printf("%8d   %4d   %5d   %5s\n", n, sim.tree.n(), sim.width(),
                valid ? "yes" : "NO");
    bench::JsonObject row;
    row.set("label", "ring-two-arcs").set("n", n).set("width", sim.width()).set("valid",
                                                                                valid);
    h.add_row(row);
  }
  return 0;
}
