// The sweep execution layer (api/sweep.h) and scenario sharding: run_sweep
// must be bit-identical to serial run_scenario at every worker count and
// chunk size, sharded-and-merged ScenarioResults must reproduce the
// monolithic run exactly on all four runtimes, merge() must reject
// incompatible shards with field-naming errors, and the shard-row JSONL
// round-trips (verify/shard.h).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "api/sweep.h"
#include "verify/shard.h"

namespace fle {
namespace {

ScenarioSpec ring_spec(const std::string& protocol, int n, std::size_t trials,
                       std::uint64_t seed = 11) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  return spec;
}

/// Compares every deterministic aggregate (everything except wall time).
void expect_results_equal(const ScenarioResult& a, const ScenarioResult& b,
                          const std::string& what) {
  ASSERT_EQ(a.trials, b.trials) << what;
  ASSERT_EQ(a.outcomes.domain(), b.outcomes.domain()) << what;
  EXPECT_EQ(a.outcomes.fails(), b.outcomes.fails()) << what;
  for (int j = 0; j < a.outcomes.domain(); ++j) {
    EXPECT_EQ(a.outcomes.count(static_cast<Value>(j)),
              b.outcomes.count(static_cast<Value>(j)))
        << what << " leader " << j;
  }
  EXPECT_EQ(a.total_messages, b.total_messages) << what;
  EXPECT_EQ(a.max_messages, b.max_messages) << what;
  EXPECT_EQ(a.total_sync_gap, b.total_sync_gap) << what;
  EXPECT_EQ(a.max_sync_gap, b.max_sync_gap) << what;
  EXPECT_EQ(a.max_rounds, b.max_rounds) << what;
  // The means derive from integer totals, so even the doubles are exact.
  EXPECT_EQ(a.mean_messages(), b.mean_messages()) << what;
  EXPECT_EQ(a.mean_sync_gap(), b.mean_sync_gap()) << what;
  EXPECT_EQ(a.protocol_name, b.protocol_name) << what;
  EXPECT_EQ(a.deviation_name, b.deviation_name) << what;
  ASSERT_EQ(a.per_trial.size(), b.per_trial.size()) << what;
  for (std::size_t t = 0; t < a.per_trial.size(); ++t) {
    EXPECT_EQ(a.per_trial[t], b.per_trial[t]) << what << " trial " << t;
  }
}

/// Downsized replicas of the e01–e15 bench specs (every protocol/deviation
/// family the tables sweep; e10 runs no scenarios).  The acceptance
/// criterion: run_sweep over these yields outcome histograms bit-identical
/// to serial run_scenario calls at 1/4/8 workers.
std::vector<ScenarioSpec> bench_like_specs() {
  std::vector<ScenarioSpec> specs;
  {  // e01: Basic-LEAD honest + single adversary
    specs.push_back(ring_spec("basic-lead", 8, 60, 42));
    ScenarioSpec attacked = ring_spec("basic-lead", 8, 40, 7 * 8);
    attacked.deviation = "basic-single";
    attacked.coalition = CoalitionSpec::consecutive(1, 3);
    attacked.target = 6;
    specs.push_back(attacked);
  }
  {  // e02: rushing at k = sqrt(n)
    ScenarioSpec spec = ring_spec("alead-uni", 16, 20, 11 * 16 + 4);
    spec.deviation = "rushing";
    spec.coalition = CoalitionSpec::equally_spaced(4);
    spec.target = 15;
    specs.push_back(spec);
  }
  {  // e03: randomly located adversaries (Bernoulli placement)
    ScenarioSpec spec = ring_spec("alead-uni", 64, 6, 7919);
    spec.deviation = "random-location";
    spec.coalition = CoalitionSpec::bernoulli(0.4, 31);
    spec.target = 3;
    spec.prefix = 3;
    specs.push_back(spec);
  }
  {  // e04: the cubic attack
    ScenarioSpec spec = ring_spec("alead-uni", 64, 8, 64);
    spec.deviation = "cubic";
    spec.coalition = CoalitionSpec::cubic_staircase(8);
    spec.target = 32;
    specs.push_back(spec);
  }
  // e05: the honest resilience-regime baseline
  specs.push_back(ring_spec("alead-uni", 32, 50, 256));
  {  // e06/e07: PhaseAsyncLead vs free-slot rushing
    ScenarioSpec spec = ring_spec("phase-async-lead", 64, 10, 3 * 64);
    spec.protocol_key = 0xd00dull + 64;
    spec.deviation = "phase-rushing";
    spec.coalition = CoalitionSpec::equally_spaced(11);
    spec.target = 42;
    spec.search_cap = 96ull * 64;
    specs.push_back(spec);
  }
  {  // e08: the phase-sum covert channel
    ScenarioSpec spec = ring_spec("phase-sum-lead", 32, 8, 5 * 32);
    spec.deviation = "phase-sum";
    spec.target = 29;
    specs.push_back(spec);
  }
  {  // e09/e11: tree turn games
    ScenarioSpec spec;
    spec.topology = TopologyKind::kTree;
    spec.protocol = "alternating-xor";
    spec.deviation = "xor-last-mover";
    spec.rounds = 4;
    spec.target = 1;
    spec.n = 2;
    spec.trials = 32;
    spec.seed = 9;
    specs.push_back(spec);
  }
  {  // e12: classical comparators (per-trial id permutations)
    specs.push_back(ring_spec("chang-roberts", 16, 25, 16));
    specs.push_back(ring_spec("peterson", 16, 25, 17));
  }
  {  // e13: Shamir on the fully-connected graph, honest + forging coalition
    ScenarioSpec honest;
    honest.topology = TopologyKind::kGraph;
    honest.protocol = "shamir-lead";
    honest.n = 8;
    honest.trials = 12;
    honest.seed = 17 * 8;
    specs.push_back(honest);
    ScenarioSpec forge = honest;
    forge.deviation = "shamir-forge";
    forge.coalition = CoalitionSpec::consecutive(4, 0);
    forge.target = 7;
    specs.push_back(forge);
  }
  {  // e14: full-information baton + greedy coalition
    ScenarioSpec spec;
    spec.topology = TopologyKind::kFullInfo;
    spec.protocol = "baton";
    spec.deviation = "baton-greedy";
    spec.coalition = CoalitionSpec::custom({1, 2, 3, 4});
    spec.target = 7;
    spec.n = 8;
    spec.trials = 50;
    spec.seed = 2024;
    specs.push_back(spec);
  }
  {  // e15: synchronous scenarios (blind collusion + detected rushing)
    ScenarioSpec blind;
    blind.topology = TopologyKind::kSync;
    blind.protocol = "sync-broadcast-lead";
    blind.deviation = "sync-blind-collusion";
    blind.coalition = CoalitionSpec::consecutive(7, 0);
    blind.target = 2;
    blind.n = 8;
    blind.trials = 40;
    blind.seed = 31 * 8;
    specs.push_back(blind);
    ScenarioSpec late = blind;
    late.deviation = "sync-late-broadcast";
    late.coalition = CoalitionSpec::consecutive(1, 1);
    late.trials = 10;
    specs.push_back(late);
  }
  // One threaded replica so the sweep covers all runtime families.
  {
    ScenarioSpec spec = ring_spec("alead-uni", 8, 6, 5);
    spec.topology = TopologyKind::kThreaded;
    spec.record_outcomes = true;
    specs.push_back(spec);
  }
  return specs;
}

TEST(RunSweep, MatchesSerialRunScenarioOnBenchSpecs) {
  const std::vector<ScenarioSpec> specs = bench_like_specs();
  std::vector<ScenarioResult> serial;
  for (ScenarioSpec spec : specs) {
    spec.threads = 1;
    serial.push_back(run_scenario(spec));
  }
  for (const int threads : {1, 4, 8}) {
    SweepSpec sweep;
    sweep.scenarios = specs;
    sweep.threads = threads;
    const std::vector<ScenarioResult> batched = run_sweep(sweep);
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_results_equal(serial[i], batched[i],
                           "spec " + std::to_string(i) + " (" + specs[i].protocol +
                               ") threads=" + std::to_string(threads));
    }
  }
}

TEST(TrialWindow, ValidatesAndNamesTheOffendingField) {
  ScenarioSpec spec = ring_spec("basic-lead", 8, 10);
  spec.trial_offset = 11;
  try {
    run_scenario(spec);
    FAIL() << "expected std::invalid_argument for offset > trials";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("ScenarioSpec.trial_offset"),
              std::string::npos)
        << error.what();
  }
  spec.trial_offset = 4;
  spec.trial_count = 7;  // 4 + 7 > 10
  try {
    run_scenario(spec);
    FAIL() << "expected std::invalid_argument for offset + count > trials";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("ScenarioSpec.trial_count"), std::string::npos)
        << error.what();
  }
  // trial_count = 0 means "through the end".
  spec.trial_count = 0;
  const ScenarioResult tail = run_scenario(spec);
  EXPECT_EQ(tail.trials, 6u);
  EXPECT_EQ(tail.trial_offset, 4u);
  EXPECT_EQ(tail.spec_trials, 10u);
}

TEST(TrialWindow, WindowedRunMatchesTheSliceOfTheFullRun) {
  ScenarioSpec full = ring_spec("alead-uni", 12, 20);
  full.record_outcomes = true;
  const ScenarioResult whole = run_scenario(full);

  ScenarioSpec window = full;
  window.trial_offset = 7;
  window.trial_count = 5;
  const ScenarioResult slice = run_scenario(window);
  ASSERT_EQ(slice.per_trial.size(), 5u);
  for (std::size_t t = 0; t < 5; ++t) {
    EXPECT_EQ(slice.per_trial[t], whole.per_trial[7 + t]) << "trial " << t;
  }
}

/// Shards a spec `shards` ways, merges the results, and asserts the merge
/// is bit-identical to the monolithic run.
void expect_sharded_merge_identical(const ScenarioSpec& spec, int shards) {
  const ScenarioResult whole = run_scenario(spec);
  std::vector<ScenarioResult> parts;
  for (int s = 0; s < shards; ++s) {
    ScenarioSpec shard = spec;
    const std::size_t lo = spec.trials * static_cast<std::size_t>(s) /
                           static_cast<std::size_t>(shards);
    const std::size_t hi = spec.trials * (static_cast<std::size_t>(s) + 1) /
                           static_cast<std::size_t>(shards);
    if (hi == lo) continue;
    shard.trial_offset = lo;
    shard.trial_count = hi - lo;
    parts.push_back(run_scenario(shard));
  }
  ASSERT_FALSE(parts.empty());
  ScenarioResult merged = parts.front();
  for (std::size_t s = 1; s < parts.size(); ++s) merged.merge(parts[s]);
  EXPECT_EQ(merged.trial_offset, 0u);
  EXPECT_EQ(merged.trials, spec.trials);
  expect_results_equal(whole, merged,
                       std::string(to_string(spec.topology)) + "/" + spec.protocol + " x" +
                           std::to_string(shards));
}

TEST(ScenarioShards, MergeBitIdenticalToMonolithicOnAllRuntimes) {
  std::vector<ScenarioSpec> specs;
  {  // ring, deviated, with per-trial outcomes and sync gaps
    ScenarioSpec spec = ring_spec("alead-uni", 16, 23);
    spec.deviation = "rushing";
    spec.coalition = CoalitionSpec::equally_spaced(4);
    spec.target = 15;
    spec.record_outcomes = true;
    specs.push_back(spec);
  }
  {  // graph
    ScenarioSpec spec;
    spec.topology = TopologyKind::kGraph;
    spec.protocol = "shamir-lead";
    spec.n = 8;
    spec.trials = 17;
    spec.seed = 3;
    specs.push_back(spec);
  }
  {  // sync
    ScenarioSpec spec;
    spec.topology = TopologyKind::kSync;
    spec.protocol = "sync-broadcast-lead";
    spec.n = 8;
    spec.trials = 19;
    spec.seed = 4;
    specs.push_back(spec);
  }
  {  // threaded
    ScenarioSpec spec = ring_spec("basic-lead", 8, 11, 6);
    spec.topology = TopologyKind::kThreaded;
    spec.record_outcomes = true;
    specs.push_back(spec);
  }
  for (const ScenarioSpec& spec : specs) {
    for (const int shards : {2, 3, 5}) {
      expect_sharded_merge_identical(spec, shards);
    }
  }
}

TEST(ScenarioShards, MergeRejectsIncompatibleShardsNamingTheField) {
  const ScenarioSpec base = ring_spec("basic-lead", 8, 12);
  ScenarioSpec head_spec = base;
  head_spec.trial_count = 6;
  ScenarioSpec tail_spec = base;
  tail_spec.trial_offset = 6;
  const ScenarioResult head = run_scenario(head_spec);
  const ScenarioResult tail = run_scenario(tail_spec);

  const auto expect_merge_error = [&](const ScenarioResult& other, const char* field) {
    ScenarioResult lhs = head;
    try {
      lhs.merge(other);
      FAIL() << "expected std::invalid_argument naming " << field;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos) << error.what();
    }
  };

  {  // different protocol
    ScenarioSpec other = head_spec;
    other.protocol = "alead-uni";
    expect_merge_error(run_scenario(other), "protocol_name");
  }
  {  // different outcome domain
    ScenarioSpec other = head_spec;
    other.n = 10;
    expect_merge_error(run_scenario(other), "outcomes domain");
  }
  {  // different base seed
    ScenarioSpec other = tail_spec;
    other.seed = base.seed + 1;
    expect_merge_error(run_scenario(other), "base_seed");
  }
  {  // non-contiguous (gap between shards)
    ScenarioSpec other = base;
    other.trial_offset = 7;
    expect_merge_error(run_scenario(other), "trial_offset");
  }
  {  // recorded-outcomes mismatch
    ScenarioSpec other = tail_spec;
    other.record_outcomes = true;
    expect_merge_error(run_scenario(other), "outcomes_recorded");
  }
  // And the happy path still works after all those rejections.
  ScenarioResult merged = head;
  merged.merge(tail);
  EXPECT_EQ(merged.trials, 12u);
}

TEST(RunSweep, InvalidScenarioNamesItsIndex) {
  SweepSpec sweep;
  sweep.add(ring_spec("basic-lead", 8, 4));
  sweep.add(ring_spec("no-such-protocol", 8, 4));
  try {
    run_sweep(sweep);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("SweepSpec.scenarios[1]"), std::string::npos) << message;
    EXPECT_NE(message.find("no-such-protocol"), std::string::npos) << message;
  }
}

TEST(ShardRows, FormatParseRoundTripsAndMergesToMonolithic) {
  ScenarioSpec spec = ring_spec("alead-uni", 12, 21);
  spec.record_outcomes = true;
  const ScenarioResult whole = run_scenario(spec);

  std::vector<verify::ShardRow> rows;
  for (int s = 0; s < 3; ++s) {
    ScenarioSpec shard = spec;
    shard.trial_offset = static_cast<std::size_t>(s) * 7;
    shard.trial_count = 7;
    verify::ShardRow row;
    row.case_index = 4;
    row.spec_line = "topology=ring protocol=alead-uni n=12 trials=21 seed=11";
    row.result = run_scenario(shard);
    // Round-trip through the JSONL rendering before merging.
    rows.push_back(verify::parse_shard_row(verify::format_shard_row(row)));
    EXPECT_EQ(rows.back().spec_line, row.spec_line);
    expect_results_equal(row.result, rows.back().result, "round-trip shard " +
                                                             std::to_string(s));
  }
  // Shuffle the merge order: merge_shard_rows sorts by trial_offset.
  std::swap(rows[0], rows[2]);
  const auto merged = verify::merge_shard_rows(rows);
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_TRUE(merged.count(4));
  expect_results_equal(whole, merged.at(4).result, "merged rows");
}

TEST(ShardRows, ParseRejectsCorruptCountsWithoutReplaying) {
  // A forged count far beyond the row's trials must fail the parse (fast)
  // rather than spinning the histogram replay.
  const std::string line =
      R"({"case": 0, "spec": "topology=ring protocol=basic-lead n=2 trials=4 seed=1", )"
      R"("n": 2, "trials": 4, "trial_offset": 0, "spec_trials": 4, "base_seed": 1, )"
      R"("fails": 0, "counts": "18446744073709551615,0", "total_messages": 0, )"
      R"("max_messages": 0, "total_sync_gap": 0, "max_sync_gap": 0, "max_rounds": 0, )"
      R"("wall_seconds": 0, "protocol_name": "x", "deviation_name": "", "recorded": false})";
  EXPECT_THROW(verify::parse_shard_row(line), std::invalid_argument);
}

TEST(ScenarioShards, MergeRejectsOverlappingAndGapWindows) {
  const ScenarioSpec base = ring_spec("basic-lead", 8, 12);
  ScenarioSpec head_spec = base;
  head_spec.trial_count = 6;
  const ScenarioResult head = run_scenario(head_spec);

  const auto expect_merge_error = [&](const ScenarioSpec& other_spec) {
    ScenarioResult lhs = head;
    try {
      lhs.merge(run_scenario(other_spec));
      FAIL() << "expected std::invalid_argument for a non-contiguous window";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("trial_offset"), std::string::npos)
          << error.what();
    }
  };
  {  // overlap: the next shard re-runs trials [3, 9) over head's [0, 6)
    ScenarioSpec other = base;
    other.trial_offset = 3;
    other.trial_count = 6;
    expect_merge_error(other);
  }
  {  // duplicate: the same window fed twice
    expect_merge_error(head_spec);
  }
  {  // gap: [8, 12) leaves [6, 8) uncovered
    ScenarioSpec other = base;
    other.trial_offset = 8;
    expect_merge_error(other);
  }
}

TEST(ScenarioShards, MergeRejectsTranscriptFlagMismatch) {
  ScenarioSpec head_spec = ring_spec("basic-lead", 6, 8);
  head_spec.trial_count = 4;
  head_spec.record_transcripts = true;
  ScenarioSpec tail_spec = ring_spec("basic-lead", 6, 8);
  tail_spec.trial_offset = 4;  // transcripts NOT recorded on this shard
  ScenarioResult lhs = run_scenario(head_spec);
  try {
    lhs.merge(run_scenario(tail_spec));
    FAIL() << "expected std::invalid_argument naming transcripts_recorded";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("transcripts_recorded"), std::string::npos)
        << error.what();
  }
}

TEST(ShardRows, TranscriptMergeRejectsMissingShard) {
  // A transcript-recording scenario sharded in two, with the tail shard
  // lost: the merge must fail (naming the missing file) instead of
  // returning a silently truncated capture.
  ScenarioSpec spec = ring_spec("basic-lead", 6, 8);
  spec.record_outcomes = true;
  spec.record_transcripts = true;
  spec.trial_count = 4;
  verify::ShardRow row;
  row.case_index = 0;
  row.spec_line =
      "topology=ring protocol=basic-lead n=6 trials=8 seed=11 record=1 transcripts=1";
  row.result = run_scenario(spec);
  ASSERT_EQ(row.result.per_trial_transcript.size(), 4u);
  // The row survives its own round-trip (transcript hex included) ...
  const verify::ShardRow parsed = verify::parse_shard_row(verify::format_shard_row(row));
  ASSERT_EQ(parsed.result.per_trial_transcript.size(), 4u);
  // ... but merging without the other shard is an error, not a truncation.
  try {
    verify::merge_shard_rows({parsed});
    FAIL() << "expected std::invalid_argument for missing coverage";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("shard file is missing"), std::string::npos)
        << error.what();
  }
}

TEST(ShardRows, MergeRejectsMissingShard) {
  ScenarioSpec spec = ring_spec("basic-lead", 8, 12);
  spec.trial_count = 6;  // first half only
  verify::ShardRow row;
  row.case_index = 0;
  row.spec_line = "topology=ring protocol=basic-lead n=8 trials=12 seed=11";
  row.result = run_scenario(spec);
  try {
    verify::merge_shard_rows({row});
    FAIL() << "expected std::invalid_argument for missing coverage";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("shard file is missing"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace fle
