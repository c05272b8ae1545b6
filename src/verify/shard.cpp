#include "verify/shard.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace fle::verify {

namespace {

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string render_double(double value) {
  char buffer[64];
  // %.17g round-trips every IEEE double, keeping merged means bit-exact.
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void append_kv(std::string& out, const char* key, const std::string& quoted_or_raw,
               bool quoted) {
  if (out.size() > 1) out += ", ";
  out += '"';
  out += key;
  out += "\": ";
  if (quoted) {
    out += '"';
    out += escape(quoted_or_raw);
    out += '"';
  } else {
    out += quoted_or_raw;
  }
}

/// Minimal flat-JSON scanner for the rows this module itself writes: one
/// object, string / number / bool values, no nesting.
class FlatJson {
 public:
  explicit FlatJson(const std::string& text) {
    std::size_t i = 0;
    skip_ws(text, i);
    expect(text, i, '{');
    skip_ws(text, i);
    if (i < text.size() && text[i] == '}') {
      ++i;
    } else {
      for (;;) {
        skip_ws(text, i);
        const std::string key = parse_string(text, i);
        skip_ws(text, i);
        expect(text, i, ':');
        skip_ws(text, i);
        if (!values_.emplace(key, parse_value(text, i)).second) {
          throw bad("duplicate key '" + key + "'");
        }
        skip_ws(text, i);
        if (i >= text.size()) throw bad("truncated row: unterminated object");
        if (text[i] == ',') {
          ++i;
          continue;
        }
        expect(text, i, '}');
        break;
      }
    }
    skip_ws(text, i);
    if (i != text.size()) {
      throw bad("trailing bytes after the row object (offset " + std::to_string(i) + ")");
    }
  }

  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) != 0; }

  [[nodiscard]] const std::string& str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw bad("missing key '" + key + "'");
    return it->second;
  }

  [[nodiscard]] std::uint64_t u64(const std::string& key) const {
    // Strict digits-only: std::stoull would silently wrap "-5" and accept
    // numeric prefixes of garbage ("12abc"), turning a corrupt row into a
    // wrong-but-plausible aggregate instead of an error.
    const std::string& text = str(key);
    if (text.empty()) throw bad("key '" + key + "' is empty, expected an unsigned integer");
    std::uint64_t value = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') {
        throw bad("key '" + key + "' = '" + text + "' is not an unsigned integer");
      }
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        throw bad("key '" + key + "' = '" + text + "' overflows 64 bits");
      }
      value = value * 10 + digit;
    }
    return value;
  }

  [[nodiscard]] double dbl(const std::string& key) const {
    const std::string& text = str(key);
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(text, &consumed);
    } catch (const std::logic_error&) {
      throw bad("key '" + key + "' = '" + text + "' is not a number");
    }
    if (consumed != text.size()) {
      throw bad("key '" + key + "' = '" + text + "' has trailing bytes after the number");
    }
    return value;
  }

  [[nodiscard]] bool boolean(const std::string& key) const {
    const std::string& text = str(key);
    if (text == "true") return true;
    if (text == "false") return false;
    throw bad("key '" + key + "' = '" + text + "' is not a boolean");
  }

 private:
  static std::invalid_argument bad(const std::string& what) {
    return std::invalid_argument("shard row: " + what);
  }

  static void skip_ws(const std::string& t, std::size_t& i) {
    while (i < t.size() && (t[i] == ' ' || t[i] == '\t' || t[i] == '\r')) ++i;
  }

  static void expect(const std::string& t, std::size_t& i, char c) {
    if (i >= t.size() || t[i] != c) {
      throw bad(std::string("expected '") + c + "' at offset " + std::to_string(i));
    }
    ++i;
  }

  static std::string parse_string(const std::string& t, std::size_t& i) {
    expect(t, i, '"');
    std::string out;
    while (i < t.size() && t[i] != '"') {
      if (t[i] == '\\') {
        ++i;
        if (i >= t.size()) throw bad("dangling escape");
        switch (t[i]) {
          case 'n':
            out += '\n';
            break;
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          default:
            throw bad(std::string("unknown escape '\\") + t[i] + "'");
        }
        ++i;
      } else {
        out += t[i++];
      }
    }
    expect(t, i, '"');
    return out;
  }

  static std::string parse_value(const std::string& t, std::size_t& i) {
    if (i >= t.size()) throw bad("missing value");
    if (t[i] == '"') return parse_string(t, i);
    std::string out;
    while (i < t.size() && t[i] != ',' && t[i] != '}' && t[i] != ' ') out += t[i++];
    if (out.empty()) throw bad("empty value");
    return out;
  }

  std::map<std::string, std::string> values_;
};

std::string counts_list(const OutcomeCounter& outcomes) {
  std::string out;
  for (int j = 0; j < outcomes.domain(); ++j) {
    if (j != 0) out += ',';
    out += std::to_string(outcomes.count(static_cast<Value>(j)));
  }
  return out;
}

std::string per_trial_list(const std::vector<Outcome>& per_trial) {
  std::string out;
  for (std::size_t t = 0; t < per_trial.size(); ++t) {
    if (t != 0) out += ',';
    out += per_trial[t].failed() ? std::string("F") : std::to_string(per_trial[t].leader());
  }
  return out;
}

constexpr char kHexDigits[] = "0123456789abcdef";

/// Comma-separated hex blobs, one per trial: the transcript's compact
/// binary encoding (sim/transcript.h), so a merged shard file reproduces
/// the monolithic capture event for event.
std::string transcript_list(const std::vector<ExecutionTranscript>& transcripts) {
  std::string out;
  for (std::size_t t = 0; t < transcripts.size(); ++t) {
    if (t != 0) out += ',';
    for (const std::uint8_t byte : transcripts[t].encode()) {
      out += kHexDigits[byte >> 4];
      out += kHexDigits[byte & 0xf];
    }
  }
  return out;
}

ExecutionTranscript transcript_from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("shard row: odd-length transcript hex blob");
  }
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  // Either case is accepted (we emit lowercase, but rows may pass through
  // tools that uppercase hex), and the error names the decoded byte offset
  // so a corrupted row is localizable.
  const auto nibble = [&hex](std::size_t pos) -> std::uint8_t {
    const char c = hex[pos];
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<std::uint8_t>(c - 'A' + 10);
    throw std::invalid_argument(std::string("shard row: bad transcript hex digit '") + c +
                                "' at byte " + std::to_string(pos / 2));
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>((nibble(i) << 4) | nibble(i + 1)));
  }
  return ExecutionTranscript::decode(bytes);
}

/// Comma-separated store keys (sim/digest.h content hashes), one per
/// recorded trial: the join column between shard rows and the
/// content-addressed store (src/store/).
std::string store_key_list(const std::vector<ExecutionTranscript>& transcripts) {
  std::string out;
  for (std::size_t t = 0; t < transcripts.size(); ++t) {
    if (t != 0) out += ',';
    out += transcripts[t].content_key().hex();
  }
  return out;
}

}  // namespace

ScenarioSpec shard_key_spec(ScenarioSpec spec) {
  spec.trial_offset = 0;
  spec.trial_count = 0;
  spec.threads = ScenarioSpec{}.threads;
  return spec;
}

TrialWindow shard_trial_window(const ScenarioSpec& spec, std::size_t index, std::size_t count) {
  if (index >= count) {
    throw std::invalid_argument("shard " + std::to_string(index) + "/" + std::to_string(count) +
                                ": must satisfy 0 <= index < count");
  }
  const TrialWindow window = scenario_trial_window(spec);
  const std::size_t lo = window.count * index / count;
  const std::size_t hi = window.count * (index + 1) / count;
  return {window.first + lo, hi - lo};
}

std::string format_shard_row(const ShardRow& row, bool elide_transcripts) {
  const ScenarioResult& r = row.result;
  std::string out = "{";
  append_kv(out, "case", std::to_string(row.case_index), false);
  append_kv(out, "spec", row.spec_line, true);
  append_kv(out, "n", std::to_string(r.outcomes.domain()), false);
  append_kv(out, "trials", std::to_string(r.trials), false);
  append_kv(out, "trial_offset", std::to_string(r.trial_offset), false);
  append_kv(out, "spec_trials", std::to_string(r.spec_trials), false);
  append_kv(out, "base_seed", std::to_string(r.base_seed), false);
  append_kv(out, "fails", std::to_string(r.outcomes.fails()), false);
  append_kv(out, "counts", counts_list(r.outcomes), true);
  append_kv(out, "total_messages", std::to_string(r.total_messages), false);
  append_kv(out, "max_messages", std::to_string(r.max_messages), false);
  append_kv(out, "total_sync_gap", std::to_string(r.total_sync_gap), false);
  append_kv(out, "max_sync_gap", std::to_string(r.max_sync_gap), false);
  append_kv(out, "max_rounds", std::to_string(r.max_rounds), false);
  append_kv(out, "wall_seconds", render_double(r.wall_seconds), false);
  append_kv(out, "protocol_name", r.protocol_name, true);
  append_kv(out, "deviation_name", r.deviation_name, true);
  append_kv(out, "recorded", r.outcomes_recorded ? "true" : "false", false);
  if (r.outcomes_recorded) append_kv(out, "per_trial", per_trial_list(r.per_trial), true);
  append_kv(out, "transcripts_recorded", r.transcripts_recorded ? "true" : "false", false);
  if (r.transcripts_recorded) {
    if (elide_transcripts) {
      append_kv(out, "transcripts_elided", "true", false);
    } else {
      append_kv(out, "transcripts", transcript_list(r.per_trial_transcript), true);
    }
    append_kv(out, "store_keys", store_key_list(r.per_trial_transcript), true);
  }
  out += '}';
  return out;
}

ShardRow parse_shard_row(const std::string& line) {
  const FlatJson json(line);
  ShardRow row;
  row.case_index = json.u64("case");
  row.spec_line = json.str("spec");

  const int n = static_cast<int>(json.u64("n"));
  if (n <= 0) throw std::invalid_argument("shard row: n must be positive");
  ScenarioResult result(n);
  result.trials = json.u64("trials");
  // The counter is rebuilt by replaying `trials` records below; bound the
  // work so a corrupt row fails the parse instead of stalling the merge.
  constexpr std::uint64_t kMaxRowTrials = 100'000'000;
  if (result.trials > kMaxRowTrials) {
    throw std::invalid_argument("shard row: trials = " + std::to_string(result.trials) +
                                " exceeds the per-row limit " +
                                std::to_string(kMaxRowTrials));
  }
  result.trial_offset = json.u64("trial_offset");
  result.spec_trials = json.u64("spec_trials");
  if (result.trial_offset > result.spec_trials ||
      result.trials > result.spec_trials - result.trial_offset) {
    throw std::invalid_argument(
        "shard row: window [" + std::to_string(result.trial_offset) + ", " +
        std::to_string(result.trial_offset + result.trials) +
        ") overruns the scenario's spec_trials = " + std::to_string(result.spec_trials));
  }
  result.base_seed = json.u64("base_seed");
  result.total_messages = json.u64("total_messages");
  result.max_messages = json.u64("max_messages");
  result.total_sync_gap = json.u64("total_sync_gap");
  result.max_sync_gap = json.u64("max_sync_gap");
  result.max_rounds = static_cast<int>(json.u64("max_rounds"));
  result.wall_seconds = json.dbl("wall_seconds");
  result.protocol_name = json.str("protocol_name");
  result.deviation_name = json.str("deviation_name");
  result.outcomes_recorded = json.boolean("recorded");

  // Parse and cross-check the outcome histogram BEFORE replaying it into
  // the counter: a corrupt cell must fail the parse, not spin the replay
  // loop for up to 2^64 iterations.
  const std::string& counts = json.str("counts");
  std::vector<std::uint64_t> cells;
  cells.reserve(static_cast<std::size_t>(n));
  std::size_t start = 0;
  std::size_t counted = 0;
  while (start <= counts.size()) {
    const std::size_t comma = counts.find(',', start);
    const std::string cell =
        counts.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (cell.empty()) throw std::invalid_argument("shard row: empty counts cell");
    std::uint64_t count = 0;
    try {
      count = std::stoull(cell);
    } catch (const std::logic_error&) {
      throw std::invalid_argument("shard row: counts cell '" + cell + "' is not a number");
    }
    counted += count;  // each cell is bounded below, so the sum cannot wrap
    if (count > result.trials || counted > result.trials) {
      throw std::invalid_argument("shard row: counts exceed trials = " +
                                  std::to_string(result.trials));
    }
    if (cells.size() >= static_cast<std::size_t>(n)) {
      throw std::invalid_argument("shard row: more counts cells than n = " +
                                  std::to_string(n));
    }
    cells.push_back(count);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (cells.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("shard row: counts has " + std::to_string(cells.size()) +
                                " cells, expected n = " + std::to_string(n));
  }
  const std::uint64_t fails = json.u64("fails");
  if (counted + fails != result.trials) {
    throw std::invalid_argument("shard row: counts (" + std::to_string(counted) +
                                ") + fails (" + std::to_string(fails) + ") != trials (" +
                                std::to_string(result.trials) + ")");
  }
  for (Value leader = 0; leader < static_cast<Value>(n); ++leader) {
    for (std::uint64_t c = 0; c < cells[static_cast<std::size_t>(leader)]; ++c) {
      result.outcomes.record(Outcome::elected(leader));
    }
  }
  for (std::uint64_t f = 0; f < fails; ++f) result.outcomes.record(Outcome::fail());

  if (result.outcomes_recorded) {
    const std::string& list = json.str("per_trial");
    std::size_t pos = 0;
    while (pos <= list.size() && !list.empty()) {
      const std::size_t comma = list.find(',', pos);
      const std::string cell =
          list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (cell == "F") {
        result.per_trial.push_back(Outcome::fail());
      } else {
        try {
          result.per_trial.push_back(Outcome::elected(std::stoull(cell)));
        } catch (const std::logic_error&) {
          throw std::invalid_argument("shard row: per_trial cell '" + cell +
                                      "' is not a leader id");
        }
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (result.per_trial.size() != result.trials) {
      throw std::invalid_argument("shard row: per_trial holds " +
                                  std::to_string(result.per_trial.size()) +
                                  " outcomes, trials = " + std::to_string(result.trials));
    }
  }

  // Rows written before the transcript layer simply lack the key: not
  // recorded.
  result.transcripts_recorded =
      json.has("transcripts_recorded") && json.boolean("transcripts_recorded");
  row.transcripts_elided =
      json.has("transcripts_elided") && json.boolean("transcripts_elided");
  if (row.transcripts_elided && !result.transcripts_recorded) {
    throw std::invalid_argument("shard row: transcripts_elided without transcripts_recorded");
  }
  if (row.transcripts_elided) {
    // The dedup wire form: store keys stand in for the blobs, which the
    // receiver resolves from its content-addressed cache.
    const std::string& keys = json.str("store_keys");
    std::size_t key_pos = 0;
    while (key_pos <= keys.size() && !keys.empty()) {
      const std::size_t comma = keys.find(',', key_pos);
      const std::string key = keys.substr(
          key_pos, comma == std::string::npos ? std::string::npos : comma - key_pos);
      const std::optional<Digest256> digest = Digest256::from_hex(key);
      if (!digest) {
        throw std::invalid_argument("shard row: store_keys[" +
                                    std::to_string(row.store_keys.size()) + "] = '" + key +
                                    "' is not a 64-hex-digit content key");
      }
      row.store_keys.push_back(digest->hex());  // normalized lowercase
      if (comma == std::string::npos) break;
      key_pos = comma + 1;
    }
    if (row.store_keys.size() != result.trials) {
      throw std::invalid_argument("shard row: store_keys holds " +
                                  std::to_string(row.store_keys.size()) +
                                  " keys, trials = " + std::to_string(result.trials));
    }
  } else if (result.transcripts_recorded) {
    const std::string& list = json.str("transcripts");
    std::size_t pos = 0;
    while (pos <= list.size() && !list.empty()) {
      const std::size_t comma = list.find(',', pos);
      const std::string blob =
          list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
      try {
        result.per_trial_transcript.push_back(transcript_from_hex(blob));
      } catch (const std::exception& error) {
        throw std::invalid_argument(
            "shard row: transcripts[" + std::to_string(result.per_trial_transcript.size()) +
            "]: " + error.what());
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (result.per_trial_transcript.size() != result.trials) {
      throw std::invalid_argument("shard row: transcripts holds " +
                                  std::to_string(result.per_trial_transcript.size()) +
                                  " entries, trials = " + std::to_string(result.trials));
    }
    // The store-key column is derived data; when present it must agree
    // with the blobs it annotates, or the row was stitched from two
    // different captures.
    if (json.has("store_keys")) {
      const std::string& keys = json.str("store_keys");
      std::size_t key_pos = 0;
      std::size_t trial = 0;
      while (key_pos <= keys.size() && !keys.empty()) {
        const std::size_t comma = keys.find(',', key_pos);
        const std::string key = keys.substr(
            key_pos, comma == std::string::npos ? std::string::npos : comma - key_pos);
        if (trial >= result.per_trial_transcript.size()) {
          throw std::invalid_argument("shard row: more store_keys than transcripts");
        }
        const std::string expected = result.per_trial_transcript[trial].content_key().hex();
        if (key != expected) {
          throw std::invalid_argument("shard row: store_keys[" + std::to_string(trial) +
                                      "] = '" + key + "' does not match the transcript (" +
                                      expected + ")");
        }
        ++trial;
        if (comma == std::string::npos) break;
        key_pos = comma + 1;
      }
      if (trial != result.per_trial_transcript.size()) {
        throw std::invalid_argument("shard row: store_keys holds " + std::to_string(trial) +
                                    " keys, transcripts = " +
                                    std::to_string(result.per_trial_transcript.size()));
      }
    }
  }

  result.mean_messages =
      result.trials > 0
          ? static_cast<double>(result.total_messages) / static_cast<double>(result.trials)
          : 0.0;
  result.mean_sync_gap =
      result.trials > 0
          ? static_cast<double>(result.total_sync_gap) / static_cast<double>(result.trials)
          : 0.0;
  row.result = std::move(result);
  return row;
}

std::map<std::size_t, MergedCase> merge_shard_rows(std::vector<ShardRow> rows) {
  std::map<std::size_t, std::vector<ShardRow>> by_case;
  for (ShardRow& row : rows) by_case[row.case_index].push_back(std::move(row));

  std::map<std::size_t, MergedCase> merged;
  for (auto& [index, group] : by_case) {
    std::sort(group.begin(), group.end(), [](const ShardRow& a, const ShardRow& b) {
      return a.result.trial_offset < b.result.trial_offset;
    });
    for (const ShardRow& row : group) {
      if (row.spec_line != group.front().spec_line) {
        throw std::invalid_argument("shard case " + std::to_string(index) +
                                    ": rows name different specs ('" +
                                    group.front().spec_line + "' vs '" + row.spec_line +
                                    "')");
      }
    }
    MergedCase out;
    out.spec_line = group.front().spec_line;
    out.result = group.front().result;
    for (std::size_t i = 1; i < group.size(); ++i) {
      // Diagnose window tiling faults by name before the generic merge
      // contiguity check: the likely operator errors are feeding the same
      // shard file twice (overlap) or forgetting one (gap).
      const std::size_t expected = out.result.trial_offset + out.result.trials;
      const std::size_t offset = group[i].result.trial_offset;
      if (offset < expected) {
        throw std::invalid_argument(
            "shard case " + std::to_string(index) + ": trial windows overlap at trial " +
            std::to_string(offset) + " (duplicate shard file?)");
      }
      if (offset > expected) {
        throw std::invalid_argument(
            "shard case " + std::to_string(index) + ": trial window gap [" +
            std::to_string(expected) + ", " + std::to_string(offset) +
            ") (missing shard file?)");
      }
      out.result.merge(group[i].result);  // enforces compatibility + contiguity
    }
    if (out.result.trial_offset != 0 || out.result.trials != out.result.spec_trials) {
      throw std::invalid_argument(
          "shard case " + std::to_string(index) + ": shards cover trials [" +
          std::to_string(out.result.trial_offset) + ", " +
          std::to_string(out.result.trial_offset + out.result.trials) +
          ") but the scenario has " + std::to_string(out.result.spec_trials) +
          " trials — a shard file is missing");
    }
    merged.emplace(index, std::move(out));
  }
  return merged;
}

}  // namespace fle::verify
