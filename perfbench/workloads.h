#pragma once
// Seeded generators for the benchmark's workloads (README.md explains why
// each one exists and which layer it isolates).
//
// A workload is a fixed mix of scenario shapes — protocol, deviation,
// topology, scheduler, n, trial count — rendered as format_spec lines.  The
// seed picks only each scenario's base seed, so every seed costs the same
// to within trial-level noise and the program under test sees nothing but
// the generated lines.  No line names an engine, lane width or RNG family:
// those knobs are slated for removal, and the benchmark must survive it.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One generated scenario: the spec line the program under test parses,
/// and the family the per-layer ledger attributes its busy time to.
struct WorkloadLine {
  std::string family;
  std::string line;
};

/// The workloads, in the order the per-layer ledger visits them.
inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"lane-ring", "scalar-paper", "evidence-fabric"};
  return names;
}

/// The seed whose reference digests are recorded in golden.txt; any other
/// seed is checked against an untimed engine=scalar oracle run instead.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// The workload's spec lines for `seed`.  Throws std::invalid_argument for
/// an unknown workload name.
std::vector<WorkloadLine> generate_workload(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
