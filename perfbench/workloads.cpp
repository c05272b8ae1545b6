#include "workloads.h"

#include <stdexcept>

#include "api/scenario.h"
#include "attacks/coalition.h"
#include "verify/fuzzer.h"

namespace perfbench {
namespace {

using fle::CoalitionSpec;
using fle::ScenarioSpec;
using fle::SchedulerKind;
using fle::TopologyKind;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Collects a workload's lines; every scenario's base seed is drawn from
/// the workload seed and the scenario's position, nothing else.
class Builder {
 public:
  explicit Builder(std::uint64_t seed) : seed_(seed) {}

  void add(const std::string& family, ScenarioSpec spec) {
    spec.seed = splitmix64(seed_ ^ splitmix64(lines_.size() + 1)) >> 16;
    lines_.push_back({family, fle::verify::format_spec(spec)});
  }

  std::vector<WorkloadLine> take() { return std::move(lines_); }

 private:
  std::uint64_t seed_;
  std::vector<WorkloadLine> lines_;
};

ScenarioSpec spec(TopologyKind topology, const char* protocol, int n, std::size_t trials,
                  SchedulerKind scheduler = SchedulerKind::kRoundRobin) {
  ScenarioSpec s;
  s.topology = topology;
  s.protocol = protocol;
  s.n = n;
  s.trials = trials;
  s.scheduler = scheduler;
  return s;
}

ScenarioSpec ring(const char* protocol, int n, std::size_t trials,
                  SchedulerKind scheduler = SchedulerKind::kRoundRobin) {
  return spec(TopologyKind::kRing, protocol, n, trials, scheduler);
}

ScenarioSpec deviated(ScenarioSpec s, const char* deviation, CoalitionSpec coalition,
                      std::uint64_t target = 0) {
  s.deviation = deviation;
  s.coalition = std::move(coalition);
  s.target = target;
  return s;
}

// Ring and sync scenarios that all have lane kernels.  A router that
// weighs each engine shape (protocol, deviation, placement, target, n,
// scheduler) by its share of the sweep's trials sends shapes below 1/16 to
// the scalar engine: every regular row here carries 1/15 of the trials, the
// big-n rows almost none.  The big rows come first: their trials are the
// longest chains, and starting them early keeps the sweep's makespan from
// hanging on where they happen to be queued.  They stop at n=1024: beyond
// that a trial's working set leaves the cache and its cost follows the
// memory traffic of whatever else shares the host.
std::vector<WorkloadLine> lane_ring(std::uint64_t seed) {
  constexpr auto kRandom = SchedulerKind::kRandom;
  constexpr auto kPriority = SchedulerKind::kPriority;
  constexpr std::size_t kTrials = 400;
  Builder b(seed);
  b.add("ring-lanes", ring("alead-uni", 1024, 2, kPriority));
  b.add("ring-lanes", ring("alead-uni", 1024, 2, kRandom));
  b.add("ring-lanes", ring("alead-uni", 32, kTrials, kRandom));
  b.add("ring-lanes", deviated(ring("alead-uni", 32, kTrials, kRandom), "rushing",
                               CoalitionSpec::equally_spaced(8), 5));
  b.add("ring-lanes", ring("basic-lead", 32, kTrials, kRandom));
  b.add("ring-lanes", deviated(ring("basic-lead", 32, kTrials, kRandom), "basic-single",
                               CoalitionSpec::consecutive(1, 3), 7));
  b.add("ring-lanes", ring("chang-roberts", 32, kTrials, kRandom));
  b.add("ring-lanes", deviated(ring("chang-roberts", 32, kTrials, kRandom), "basic-single",
                               CoalitionSpec::consecutive(1, 5), 9));
  b.add("ring-lanes", ring("alead-uni", 32, kTrials, kPriority));
  b.add("ring-lanes", ring("basic-lead", 32, kTrials, kPriority));
  b.add("ring-lanes", deviated(ring("basic-lead", 32, kTrials, kPriority), "rushing",
                               CoalitionSpec::equally_spaced(8), 11));
  b.add("ring-lanes", ring("chang-roberts", 32, kTrials, kPriority));
  // Round-robin rows: the closed-form fast paths.
  b.add("ring-fast", ring("alead-uni", 64, kTrials));
  b.add("ring-fast", ring("basic-lead", 64, kTrials));
  b.add("ring-fast", ring("chang-roberts", 64, kTrials));
  b.add("sync-lanes", spec(TopologyKind::kSync, "sync-broadcast-lead", 16, kTrials));
  b.add("sync-lanes", spec(TopologyKind::kSync, "sync-ring-lead", 16, kTrials));
  return b.take();
}

ScenarioSpec phase_rushing(int n, int k, std::uint64_t protocol_key, std::uint64_t cap_per_n,
                           std::size_t trials) {
  ScenarioSpec s =
      deviated(ring("phase-async-lead", n, trials), "phase-rushing",
               CoalitionSpec::equally_spaced(k), static_cast<std::uint64_t>(2 * n / 3));
  s.protocol_key = protocol_key;
  s.search_cap = cap_per_n * static_cast<std::uint64_t>(n);
  return s;
}

ScenarioSpec cubic(int n, std::size_t trials) {
  const int k = fle::Coalition::cubic_min_k(n);
  return deviated(ring("alead-uni", n, trials), "cubic", CoalitionSpec::cubic_staircase(k),
                  static_cast<std::uint64_t>(n / 2));
}

std::vector<fle::ProcessorId> range_members(int first, int last) {
  std::vector<fle::ProcessorId> members;
  for (int p = first; p <= last; ++p) members.push_back(p);
  return members;
}

// The paper rows with no lane kernel, shaped after the bench tables named
// in each comment.  Roughly 40% PhaseAsyncLead, 40% graph Shamir, and the
// rest cubic, sync and turn-game rows, in single-thread CPU.
std::vector<WorkloadLine> scalar_paper(std::uint64_t seed) {
  Builder b(seed);
  // e06 / e08 / e11: honest PhaseAsyncLead.
  b.add("phase-honest", ring("phase-async-lead", 256, 6));
  b.add("phase-honest", ring("phase-async-lead", 100, 24));
  b.add("phase-honest", ring("phase-async-lead", 400, 2));
  b.add("phase-honest", ring("phase-async-lead", 27, 120));
  // e07 / x1: phase-rushing under a preimage-search cap.  Each search
  // stops at its first hit, so a trial's cost is random; many trials at
  // modest n keep the row's total nearly the same for every seed.
  b.add("phase-attack", phase_rushing(36, 6, 0xd00dull + 36, 96, 24));
  b.add("phase-attack", phase_rushing(49, 7, 0xc805ull, 64, 12));
  // e13: fully-connected Shamir LEAD, honest and attacked.
  b.add("graph-shamir", spec(TopologyKind::kGraph, "shamir-lead", 8, 60));
  b.add("graph-shamir", spec(TopologyKind::kGraph, "shamir-lead", 16, 10));
  b.add("graph-attack", deviated(spec(TopologyKind::kGraph, "shamir-lead", 16, 10),
                                 "shamir-rushing", CoalitionSpec::consecutive(3, 1), 2));
  b.add("graph-attack", deviated(spec(TopologyKind::kGraph, "shamir-lead", 12, 30),
                                 "shamir-forge", CoalitionSpec::consecutive(3, 0), 2));
  // e04: the cubic attack on A-LEADuni.
  b.add("cubic", cubic(256, 4));
  b.add("cubic", cubic(1024, 1));
  // e15: deviated synchronous rows.
  b.add("sync-scalar", deviated(spec(TopologyKind::kSync, "sync-broadcast-lead", 16, 120),
                                "sync-late-broadcast", CoalitionSpec::consecutive(1, 1)));
  {
    std::vector<fle::ProcessorId> members = range_members(0, 15);
    members.erase(members.begin() + 8);  // everyone except the lone honest n/2
    b.add("sync-scalar", deviated(spec(TopologyKind::kSync, "sync-broadcast-lead", 16, 400),
                                  "sync-blind-collusion", CoalitionSpec::custom(members)));
  }
  // e09 / e14: turn games.
  {
    ScenarioSpec xor_game = deviated(spec(TopologyKind::kTree, "alternating-xor", 2, 64),
                                     "xor-last-mover", CoalitionSpec{}, 1);
    xor_game.rounds = 6;
    b.add("turn-game", xor_game);
  }
  b.add("turn-game", deviated(spec(TopologyKind::kFullInfo, "baton", 16, 800), "baton-greedy",
                              CoalitionSpec::custom(range_members(1, 2)), 15));
  b.add("turn-game", deviated(spec(TopologyKind::kFullInfo, "majority-coin", 9, 2000),
                              "majority-target", CoalitionSpec::custom(range_members(0, 1)), 1));
  return b.take();
}

ScenarioSpec transcribed(ScenarioSpec s) {
  s.record_transcripts = true;
  return s;
}

// Small-n scenarios with recorded transcripts: protocol compute is cheap,
// so the transcript codec, content keys, shard rows, wire frames and the
// store carry the time.
std::vector<WorkloadLine> evidence_fabric(std::uint64_t seed) {
  Builder b(seed);
  b.add("transcribing", transcribed(ring("basic-lead", 8, 375)));
  b.add("transcribing", transcribed(ring("alead-uni", 8, 375, SchedulerKind::kRandom)));
  b.add("transcribing", transcribed(ring("chang-roberts", 8, 375, SchedulerKind::kPriority)));
  b.add("transcribing",
        transcribed(deviated(ring("basic-lead", 8, 250, SchedulerKind::kRandom), "basic-single",
                             CoalitionSpec::consecutive(1, 2), 3)));
  b.add("transcribing", transcribed(ring("phase-async-lead", 9, 75)));
  b.add("transcribing", transcribed(spec(TopologyKind::kGraph, "shamir-lead", 5, 75)));
  b.add("transcribing", transcribed(spec(TopologyKind::kSync, "sync-broadcast-lead", 6, 250)));
  return b.take();
}

}  // namespace

std::vector<WorkloadLine> generate_workload(const std::string& workload, std::uint64_t seed) {
  if (workload == "lane-ring") return lane_ring(seed);
  if (workload == "scalar-paper") return scalar_paper(seed);
  if (workload == "evidence-fabric") return evidence_fabric(seed);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
