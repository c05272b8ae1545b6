#pragma once
// Shard-file IO: the JSONL row format sharded drivers exchange, and the
// one shard-window rule they share.
//
// A sharded run (fle_sweep --local --shard i/m, fle_verify --shard i/m)
// executes only a window of every scenario's trials
// (ScenarioSpec::trial_offset/trial_count) and writes one JSONL row per
// scenario; a fabric worker answers each trial window with the same rows.
// A row carries the window-cleared spec line (verify/fuzzer.h
// format_spec), the case index within the driver's plan, and the partial
// ScenarioResult as exact mergeable aggregates (outcome counts, integer
// totals, maxima).  The merge step (fle_verify --merge, fle_store build,
// the fabric driver) parses the rows, groups them by case, orders them by
// trial_offset and folds them
// with ScenarioResult::merge — reproducing the monolithic run bit for bit,
// because per-trial seeds depend only on the global trial index and every
// aggregate is an exact integer (DESIGN.md §6).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/scenario.h"

namespace fle::verify {

/// One scenario's partial result, as written by a sharded driver.
struct ShardRow {
  std::size_t case_index = 0;   ///< position in the driver's scenario plan
  std::string spec_line;        ///< format_spec() of the window-CLEARED spec
  ScenarioResult result{1};
  /// True when the row was formatted with elide_transcripts: the recorded
  /// transcripts travel out of band (the fabric's dedup path ships only the
  /// blobs the driver lacks) and the row carries their store keys instead.
  bool transcripts_elided = false;
  /// Hex content keys (sim/digest.h), one per recorded trial, when elided.
  std::vector<std::string> store_keys;

  ShardRow() = default;
};

/// The spec key written into shard rows: the shard window cleared and
/// executor-local fields (threads) normalized, so every shard — and the
/// merge step — formats the identical format_spec line for one scenario.
ScenarioSpec shard_key_spec(ScenarioSpec spec);

/// Shard `index` of `count` of the scenario's trial window
/// (scenario_trial_window(spec), T trials from `first`): the slice
/// [first + index*T/count, first + (index+1)*T/count).  The `count`
/// slices tile the window exactly; a slice is empty when T < count.
/// Callers choose what an empty slice means.  Throws std::invalid_argument
/// unless 0 <= index < count (and on a malformed spec window).
TrialWindow shard_trial_window(const ScenarioSpec& spec, std::size_t index, std::size_t count);

/// Renders one JSONL row (no trailing newline).  With elide_transcripts,
/// a transcript-recording row keeps its store_keys column but drops the
/// hex blobs and marks itself "transcripts_elided" — the wire-dedup form
/// whose blobs are shipped (or skipped) separately by content key.
std::string format_shard_row(const ShardRow& row, bool elide_transcripts = false);

/// Parses a row previously produced by format_shard_row.  Throws
/// std::invalid_argument naming the offending key on malformed input.
ShardRow parse_shard_row(const std::string& line);

/// A fully merged case: all shards of one scenario folded together.
struct MergedCase {
  std::string spec_line;
  ScenarioResult result{1};
};

/// Groups rows by case index, orders each group by trial_offset and folds
/// it with ScenarioResult::merge (which enforces compatibility and
/// contiguity).  Throws std::invalid_argument if two rows of one case name
/// different specs, or if the shards do not tile the scenario.
std::map<std::size_t, MergedCase> merge_shard_rows(std::vector<ShardRow> rows);

}  // namespace fle::verify
