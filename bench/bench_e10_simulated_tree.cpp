// E10 (Claim F.5 / Theorem 7.2): every connected graph is a
// ceil(n/2)-simulated tree (constructive partition), and on simulated-tree
// protocols an assuring part of size <= k exists.

#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "trees/partition.h"
#include "trees/tree_protocols.h"

int main(int argc, char** argv) {
  using namespace fle;
  bench::Harness h("e10", "E10 / Claim F.5 + Theorem 7.2",
                   "Half-partitions of random graphs; assuring parts on simulated trees",
                   argc, argv);
  h.row_header("     n   graphs   valid simulations   max width   width bound");

  for (const int n : {8, 16, 32, 64, 128}) {
    const int graphs = 50;
    int valid = 0;
    int max_width = 0;
    for (std::uint64_t seed = 0; seed < graphs; ++seed) {
      const auto g = Graph::random_connected(n, static_cast<int>(seed % 17), seed * 11 + n);
      const auto sim = half_partition(g);
      valid += is_valid_simulation(g, sim, (n + 1) / 2) ? 1 : 0;
      max_width = std::max(max_width, sim.width());
    }
    std::printf("%6d   %6d   %17d   %9d   %11d\n", n, graphs, valid, max_width,
                (n + 1) / 2);
    bench::JsonObject row;
    row.set("label", "half-partition")
        .set("n", n)
        .set("graphs", graphs)
        .set("valid", valid)
        .set("max_width", max_width)
        .set("width_bound", (n + 1) / 2);
    h.add_row(row);
  }

  h.note("expected shape: valid = graphs, width <= ceil(n/2) in every row");
  h.note("assuring-part demo on last-mover games over the two-arc ring simulation:");
  h.row_header("  ring n   part width k   assuring part found   forces both bits");
  for (const int n : {4, 8, 12, 16, 20}) {
    const auto sim = ring_as_two_arc_simulation(n);
    auto say = [&](int owner) {
      std::vector<std::unique_ptr<GameNode>> kids;
      kids.push_back(GameTree::leaf(0));
      kids.push_back(GameTree::leaf(1));
      return GameTree::choice(owner, std::move(kids));
    };
    std::vector<std::unique_ptr<GameNode>> outer;
    outer.push_back(say(n - 1));
    outer.push_back(say(n - 1));
    GameTree g(GameTree::choice(1, std::move(outer)), n);
    const auto part = find_assuring_part(g, sim);
    bool both = false;
    if (part) {
      const auto masks = part_masks(sim);
      const auto m = masks[static_cast<std::size_t>(part->part_index)];
      both = g.assures(m, 0) && g.assures(m, 1);
    }
    std::printf("%8d   %12d   %19s   %16s\n", n, sim.width(), part ? "yes" : "NO",
                both ? "yes" : "no");
    bench::JsonObject row;
    row.set("label", "assuring-part")
        .set("n", n)
        .set("width", sim.width())
        .set("found", part.has_value())
        .set("forces_both", both);
    h.add_row(row);
  }
  h.note("expected shape: a part of size ceil(n/2) assures (Theorem 7.2's coalition)");
  return 0;
}
