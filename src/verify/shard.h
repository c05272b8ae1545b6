#pragma once
// Shard rows: the JSONL row format of scenario results.
//
// A fabric worker answers each trial window it is assigned
// (ScenarioSpec::trial_offset/trial_count) with one row, and a canonical
// report (fle_sweep's output) is one row per scenario.  A row carries the
// window-cleared spec line (verify/fuzzer.h format_spec), the case index
// within the sweep, and the (partial) ScenarioResult as exact mergeable
// aggregates (outcome counts, integer totals, maxima).  The merge step
// (RemoteExecutor, fle_store build) parses the rows, groups them by case,
// orders them by trial_offset and folds them with ScenarioResult::merge —
// reproducing the monolithic run bit for bit, because per-trial seeds
// depend only on the global trial index and every aggregate is an exact
// integer (DESIGN.md §6).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "sim/digest.h"

namespace fle::verify {

/// One scenario's (partial) result, as one row.
struct ShardRow {
  std::size_t case_index = 0;   ///< position in the driver's scenario plan
  std::string spec_line;        ///< format_spec() of the window-CLEARED spec
  ScenarioResult result{1};
  /// True when the row was formatted with elide_transcripts: the recorded
  /// transcripts travel out of band (a fabric kResult frame carries them
  /// in binary beside the row) and the row carries their store keys
  /// instead.
  bool transcripts_elided = false;
  /// Content keys (sim/digest.h), one per recorded trial, when elided.
  /// parse_shard_row fills it for elided rows; format_shard_row writes an
  /// elided row's store_keys column from it when it holds one key per
  /// trial (a fabric worker sets it from the blobs it ships), and derives
  /// the keys otherwise.
  std::vector<Digest256> store_keys;

  ShardRow() = default;
};

/// The spec key written into shard rows: the trial window cleared and
/// executor-local fields (threads) normalized, so every window's row — and
/// the merge step — formats the identical format_spec line for one
/// scenario.
ScenarioSpec shard_key_spec(ScenarioSpec spec);

/// Renders one JSONL row (no trailing newline).  With elide_transcripts,
/// a transcript-recording row keeps its store_keys column but drops the
/// hex blobs and marks itself "transcripts_elided" — the wire form whose
/// blobs travel beside it, each checked against its store key.
std::string format_shard_row(const ShardRow& row, bool elide_transcripts = false);

/// The canonical-report row (fabric::canonical_report): `result` as case
/// `case_index` under `spec_line`, with its one nondeterministic field,
/// wall_seconds, written as 0.  Formats in place, without copying the
/// result.
std::string format_canonical_row(std::size_t case_index, const std::string& spec_line,
                                 const ScenarioResult& result);

/// Parses a row previously produced by format_shard_row, and only such a
/// row (DESIGN.md §6 gives the accepted form).  Throws
/// std::invalid_argument naming the offending key on malformed input.
/// Each transcript blob is decoded against its store key
/// (ExecutionTranscript's keyed decode: one hash per trial), so the parsed
/// transcripts carry their content keys.
ShardRow parse_shard_row(const std::string& line);

/// A fully merged case: all rows of one scenario folded together.
struct MergedCase {
  std::string spec_line;
  ScenarioResult result{1};
};

/// Groups rows by case index, orders each group by trial_offset and folds
/// it with ScenarioResult::merge (which enforces compatibility and
/// contiguity).  Throws std::invalid_argument if two rows of one case name
/// different specs, or if the rows' windows do not tile the scenario.
std::map<std::size_t, MergedCase> merge_shard_rows(std::vector<ShardRow> rows);

}  // namespace fle::verify
