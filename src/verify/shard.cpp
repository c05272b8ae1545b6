#include "verify/shard.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/parse_number.h"

namespace fle::verify {

namespace {

/// Appends `text` with '"', '\' and newline escaped.
void append_escaped(std::string& out, std::string_view text) {
  std::size_t from = 0;
  for (;;) {
    const std::size_t special = text.find_first_of("\"\\\n", from);
    if (special == std::string_view::npos) {
      out.append(text.substr(from));
      return;
    }
    out.append(text.substr(from, special - from));
    out += '\\';
    out += text[special] == '\n' ? 'n' : text[special];
    from = special + 1;
  }
}

std::string render_double(double value) {
  char buffer[64];
  // %.17g round-trips every IEEE double, keeping merged means bit-exact.
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Appends the separator and `"key": `.
void append_key(std::string& out, const char* key) {
  if (out.size() > 1) out += ", ";
  out += '"';
  out += key;
  out += "\": ";
}

void append_raw(std::string& out, const char* key, std::string_view value) {
  append_key(out, key);
  out += value;
}

void append_quoted(std::string& out, const char* key, std::string_view text) {
  append_key(out, key);
  out += '"';
  append_escaped(out, text);
  out += '"';
}

/// Minimal flat-JSON scanner for the rows this module itself writes: one
/// object, string / number / bool values, no nesting.  Keys and values are
/// views into the row; only a string that carries an escape is copied out
/// (into unescaped_, whose elements a deque never moves).
class FlatJson {
 public:
  explicit FlatJson(std::string_view text) {
    std::size_t i = 0;
    skip_ws(text, i);
    expect(text, i, '{');
    skip_ws(text, i);
    if (i < text.size() && text[i] == '}') {
      ++i;
    } else {
      for (;;) {
        skip_ws(text, i);
        const std::string_view key = parse_string(text, i);
        skip_ws(text, i);
        expect(text, i, ':');
        skip_ws(text, i);
        const std::string_view value = parse_value(text, i);
        if (find(key) != nullptr) throw bad("duplicate key '" + std::string(key) + "'");
        fields_.push_back({key, value});
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

  FlatJson(const FlatJson&) = delete;
  FlatJson& operator=(const FlatJson&) = delete;

  [[nodiscard]] bool has(std::string_view key) const { return read(key) != nullptr; }

  [[nodiscard]] std::string_view str(std::string_view key) const {
    const std::string_view* value = read(key);
    if (value == nullptr) throw bad("missing key '" + std::string(key) + "'");
    return *value;
  }

  /// Throws naming the first key no getter has asked for: a row holds
  /// exactly the keys its writer writes.
  void refuse_unread() const {
    for (const Field& field : fields_) {
      if (!field.read) throw bad("unexpected key '" + std::string(field.key) + "'");
    }
  }

  /// Numbers are read over the whole value by core/parse_number.h: no
  /// sign, no space, no trailing bytes, and nothing out of range.
  [[nodiscard]] std::uint64_t u64(std::string_view key) const {
    const std::string_view text = str(key);
    const std::optional<std::uint64_t> value = try_parse_int<std::uint64_t>(text);
    if (!value) {
      throw bad("key '" + std::string(key) + "' = '" + std::string(text) +
                "' is not an unsigned 64-bit integer");
    }
    return *value;
  }

  /// An unsigned integer that must also fit an int (n, max_rounds).
  [[nodiscard]] int int_value(std::string_view key) const {
    const std::uint64_t value = u64(key);
    if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      throw bad("key '" + std::string(key) + "' = " + std::to_string(value) +
                " is outside int");
    }
    return static_cast<int>(value);
  }

  [[nodiscard]] double dbl(std::string_view key) const {
    const std::string_view text = str(key);
    const std::optional<double> value = try_parse_double(text);
    if (!value) {
      throw bad("key '" + std::string(key) + "' = '" + std::string(text) + "' is not a number");
    }
    return *value;
  }

  [[nodiscard]] bool boolean(std::string_view key) const {
    const std::string_view text = str(key);
    if (text == "true") return true;
    if (text == "false") return false;
    throw bad("key '" + std::string(key) + "' = '" + std::string(text) + "' is not a boolean");
  }

 private:
  static std::invalid_argument bad(const std::string& what) {
    return std::invalid_argument("shard row: " + what);
  }

  struct Field {
    std::string_view key;
    std::string_view value;
    mutable bool read = false;
  };

  [[nodiscard]] const Field* find(std::string_view key) const {
    for (const Field& field : fields_) {
      if (field.key == key) return &field;
    }
    return nullptr;
  }

  [[nodiscard]] const std::string_view* read(std::string_view key) const {
    const Field* field = find(key);
    if (field == nullptr) return nullptr;
    field->read = true;
    return &field->value;
  }

  static void skip_ws(std::string_view t, std::size_t& i) {
    while (i < t.size() && (t[i] == ' ' || t[i] == '\t' || t[i] == '\r')) ++i;
  }

  static void expect(std::string_view t, std::size_t& i, char c) {
    if (i >= t.size() || t[i] != c) {
      throw bad(std::string("expected '") + c + "' at offset " + std::to_string(i));
    }
    ++i;
  }

  std::string_view parse_string(std::string_view t, std::size_t& i) {
    expect(t, i, '"');
    // Most strings (every hex column) hold no escape: their end is the
    // next quote, and the string is a view of the row.
    const std::size_t close = t.find('"', i);
    if (close != std::string_view::npos) {
      const std::string_view view = t.substr(i, close - i);
      if (view.find('\\') == std::string_view::npos) {
        i = close + 1;
        return view;
      }
    }
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
    return unescaped_.emplace_back(std::move(out));
  }

  std::string_view parse_value(std::string_view t, std::size_t& i) {
    if (i >= t.size()) throw bad("missing value");
    if (t[i] == '"') return parse_string(t, i);
    const std::size_t start = i;
    while (i < t.size() && t[i] != ',' && t[i] != '}' && t[i] != ' ') ++i;
    if (i == start) throw bad("empty value");
    return t.substr(start, i - start);
  }

  std::vector<Field> fields_;
  std::deque<std::string> unescaped_;
};

/// Splits a comma-separated list column; an empty column is an empty list.
std::vector<std::string_view> split_list(std::string_view list) {
  std::vector<std::string_view> cells;
  std::size_t pos = 0;
  while (pos <= list.size() && !list.empty()) {
    const std::size_t comma = list.find(',', pos);
    cells.push_back(list.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                                      : comma - pos));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return cells;
}

std::vector<std::uint8_t> bytes_from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("shard row: odd-length transcript hex blob");
  }
  std::vector<std::uint8_t> bytes(hex.size() / 2);
  // Either case is accepted (we emit lowercase, but rows may pass through
  // tools that uppercase hex), and the error names the decoded byte offset
  // so a corrupted row is localizable.
  const std::size_t bad = decode_hex(hex, bytes);
  if (bad != hex.size()) {
    throw std::invalid_argument(std::string("shard row: bad transcript hex digit '") +
                                hex[bad] + "' at byte " + std::to_string(bad / 2));
  }
  return bytes;
}

/// Decodes trial `trial`'s hex blob against its store key (`key_text`):
/// one hash, and the transcript carries the key.  A refused blob is
/// reported as the transcript's fault when it does not decode, and as the
/// key's when it decodes but hashes to another key: the store-key column is
/// derived data, so a mismatch means the row was stitched from two
/// different captures.
ExecutionTranscript transcript_from_hex(std::string_view hex, std::string_view key_text,
                                        std::size_t trial) {
  const auto blob_error = [trial](const std::exception& error) {
    return std::invalid_argument("shard row: transcripts[" + std::to_string(trial) +
                                 "]: " + error.what());
  };
  std::vector<std::uint8_t> bytes;
  try {
    bytes = bytes_from_hex(hex);
  } catch (const std::exception& error) {
    throw blob_error(error);
  }
  // Keys are emitted lowercase and compared as text, so an uppercased key
  // stays a mismatch.
  const bool lowercase = std::none_of(key_text.begin(), key_text.end(),
                                      [](char c) { return c >= 'A' && c <= 'F'; });
  const std::optional<Digest256> key = lowercase ? Digest256::from_hex(key_text) : std::nullopt;
  if (key) {
    try {
      return ExecutionTranscript::decode(bytes, *key);
    } catch (const std::invalid_argument&) {
      // Refused: classified below.
    }
  }
  std::string actual;
  try {
    actual = ExecutionTranscript::decode(bytes).content_key().hex();
  } catch (const std::exception& error) {
    throw blob_error(error);
  }
  throw std::invalid_argument("shard row: store_keys[" + std::to_string(trial) + "] = '" +
                              std::string(key_text) + "' does not match the transcript (" +
                              actual + ")");
}

std::string format_row(std::size_t case_index, const std::string& spec_line,
                       const ScenarioResult& r, double wall_seconds, bool elide_transcripts,
                       const std::vector<Digest256>& store_keys) {
  std::string out = "{";
  append_raw(out, "case", std::to_string(case_index));
  append_quoted(out, "spec", spec_line);
  append_raw(out, "n", std::to_string(r.outcomes.domain()));
  append_raw(out, "trials", std::to_string(r.trials));
  append_raw(out, "trial_offset", std::to_string(r.trial_offset));
  append_raw(out, "spec_trials", std::to_string(r.spec_trials));
  append_raw(out, "base_seed", std::to_string(r.base_seed));
  append_raw(out, "fails", std::to_string(r.outcomes.fails()));
  append_key(out, "counts");
  out += '"';
  for (int j = 0; j < r.outcomes.domain(); ++j) {
    if (j != 0) out += ',';
    out += std::to_string(r.outcomes.count(static_cast<Value>(j)));
  }
  out += '"';
  append_raw(out, "total_messages", std::to_string(r.total_messages));
  append_raw(out, "max_messages", std::to_string(r.max_messages));
  append_raw(out, "total_sync_gap", std::to_string(r.total_sync_gap));
  append_raw(out, "max_sync_gap", std::to_string(r.max_sync_gap));
  append_raw(out, "max_rounds", std::to_string(r.max_rounds));
  append_raw(out, "wall_seconds", render_double(wall_seconds));
  append_quoted(out, "protocol_name", r.protocol_name);
  append_quoted(out, "deviation_name", r.deviation_name);
  append_raw(out, "recorded", r.outcomes_recorded ? "true" : "false");
  if (r.outcomes_recorded) {
    append_key(out, "per_trial");
    out += '"';
    for (std::size_t t = 0; t < r.per_trial.size(); ++t) {
      if (t != 0) out += ',';
      if (r.per_trial[t].failed()) {
        out += 'F';
      } else {
        out += std::to_string(r.per_trial[t].leader());
      }
    }
    out += '"';
  }
  append_raw(out, "transcripts_recorded", r.transcripts_recorded ? "true" : "false");
  if (r.transcripts_recorded) {
    const std::vector<ExecutionTranscript>& transcripts = r.per_trial_transcript;
    if (elide_transcripts) {
      append_raw(out, "transcripts_elided", "true");
    } else {
      // Comma-separated hex blobs, one per trial: the transcript's held
      // FLET bytes (sim/transcript.h), so a merged shard file reproduces
      // the monolithic capture event for event.
      append_key(out, "transcripts");
      out += '"';
      for (std::size_t t = 0; t < transcripts.size(); ++t) {
        if (t != 0) out += ',';
        append_hex(out, transcripts[t].bytes());
      }
      out += '"';
    }
    // Comma-separated store keys (sim/digest.h content hashes), one per
    // recorded trial: the join column between shard rows and the
    // content-addressed store (src/store/).  An elided row takes them from
    // `store_keys` when it holds one per trial; otherwise each is
    // content_key().
    const bool known = elide_transcripts && store_keys.size() == transcripts.size();
    append_key(out, "store_keys");
    out += '"';
    for (std::size_t t = 0; t < transcripts.size(); ++t) {
      if (t != 0) out += ',';
      append_hex(out, (known ? store_keys[t] : transcripts[t].content_key()).bytes);
    }
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

ScenarioSpec shard_key_spec(ScenarioSpec spec) {
  spec.trial_offset = 0;
  spec.trial_count = 0;
  spec.threads = ScenarioSpec{}.threads;
  return spec;
}

std::string format_shard_row(const ShardRow& row, bool elide_transcripts) {
  return format_row(row.case_index, row.spec_line, row.result, row.result.wall_seconds,
                    elide_transcripts, row.store_keys);
}

std::string format_canonical_row(std::size_t case_index, const std::string& spec_line,
                                 const ScenarioResult& result) {
  return format_row(case_index, spec_line, result, 0.0, false, {});
}

ShardRow parse_shard_row(const std::string& line) {
  const FlatJson json(line);
  ShardRow row;
  row.case_index = json.u64("case");
  row.spec_line = std::string(json.str("spec"));

  // n sizes the outcome counter, so the counts column bounds it before
  // anything n-sized is built: n cells take at least 2n - 1 bytes.
  const int n = json.int_value("n");
  if (n <= 0) throw std::invalid_argument("shard row: key 'n' must be positive");
  const std::string_view counts = json.str("counts");
  const std::uint64_t min_counts_bytes = 2 * static_cast<std::uint64_t>(n) - 1;
  if (counts.size() < min_counts_bytes) {
    throw std::invalid_argument("shard row: key 'n' = " + std::to_string(n) + " needs " +
                                std::to_string(min_counts_bytes) +
                                " bytes of 'counts' or more, which holds " +
                                std::to_string(counts.size()));
  }
  ScenarioResult result(n);
  result.trials = json.u64("trials");
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
  result.max_rounds = json.int_value("max_rounds");
  result.wall_seconds = json.dbl("wall_seconds");
  result.protocol_name = std::string(json.str("protocol_name"));
  result.deviation_name = std::string(json.str("deviation_name"));
  result.outcomes_recorded = json.boolean("recorded");

  // Parse and cross-check the outcome histogram before the counter takes
  // it, one record per cell: the parse costs the row's bytes, whatever
  // trial count the row claims.
  const std::vector<std::string_view> count_cells = split_list(counts);
  if (count_cells.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("shard row: key 'counts' has " +
                                std::to_string(count_cells.size()) +
                                " cells, expected n = " + std::to_string(n));
  }
  std::vector<std::uint64_t> cells;
  cells.reserve(count_cells.size());
  std::uint64_t counted = 0;
  for (const std::string_view cell : count_cells) {
    const std::optional<std::uint64_t> count = try_parse_int<std::uint64_t>(cell);
    if (!count) {
      throw std::invalid_argument("shard row: key 'counts': cell '" + std::string(cell) +
                                  "' is not an unsigned integer");
    }
    if (*count > result.trials - counted) {
      throw std::invalid_argument("shard row: key 'counts' exceeds trials = " +
                                  std::to_string(result.trials));
    }
    counted += *count;
    cells.push_back(*count);
  }
  const std::uint64_t fails = json.u64("fails");
  if (counted + fails != result.trials) {
    throw std::invalid_argument("shard row: counts (" + std::to_string(counted) +
                                ") + fails (" + std::to_string(fails) + ") != trials (" +
                                std::to_string(result.trials) + ")");
  }
  for (std::size_t leader = 0; leader < cells.size(); ++leader) {
    result.outcomes.record(Outcome::elected(static_cast<Value>(leader)), cells[leader]);
  }
  result.outcomes.record(Outcome::fail(), fails);

  if (result.outcomes_recorded) {
    // Each recorded outcome is F or a leader below n, and together they
    // are exactly the histogram above.
    std::vector<std::uint64_t> histogram(cells.size(), 0);
    std::uint64_t failed = 0;
    for (const std::string_view cell : split_list(json.str("per_trial"))) {
      if (cell == "F") {
        result.per_trial.push_back(Outcome::fail());
        ++failed;
        continue;
      }
      const std::optional<Value> leader = try_parse_int<Value>(cell);
      if (!leader || *leader >= static_cast<Value>(n)) {
        throw std::invalid_argument("shard row: key 'per_trial': cell '" + std::string(cell) +
                                    "' is neither F nor a leader below n = " +
                                    std::to_string(n));
      }
      ++histogram[static_cast<std::size_t>(*leader)];
      result.per_trial.push_back(Outcome::elected(*leader));
    }
    if (result.per_trial.size() != result.trials) {
      throw std::invalid_argument("shard row: per_trial holds " +
                                  std::to_string(result.per_trial.size()) +
                                  " outcomes, trials = " + std::to_string(result.trials));
    }
    if (histogram != cells || failed != fails) {
      throw std::invalid_argument(
          "shard row: key 'per_trial' records another histogram than 'counts' and 'fails'");
    }
  }

  result.transcripts_recorded = json.boolean("transcripts_recorded");
  row.transcripts_elided =
      json.has("transcripts_elided") && json.boolean("transcripts_elided");
  if (row.transcripts_elided && !result.transcripts_recorded) {
    throw std::invalid_argument("shard row: transcripts_elided without transcripts_recorded");
  }
  if (result.transcripts_recorded) {
    // One store key per trial.  On an elided row the keys stand in for the
    // blobs, which travel beside the row and are decoded against these keys
    // by the receiver; otherwise each blob is decoded against its key.
    const std::vector<std::string_view> keys = split_list(json.str("store_keys"));
    if (keys.size() != result.trials) {
      throw std::invalid_argument("shard row: store_keys holds " + std::to_string(keys.size()) +
                                  " keys, trials = " + std::to_string(result.trials));
    }
    if (row.transcripts_elided) {
      for (const std::string_view key : keys) {
        const std::optional<Digest256> digest = Digest256::from_hex(key);
        if (!digest) {
          throw std::invalid_argument("shard row: store_keys[" +
                                      std::to_string(row.store_keys.size()) + "] = '" +
                                      std::string(key) + "' is not a 64-hex-digit content key");
        }
        row.store_keys.push_back(*digest);
      }
    } else {
      const std::vector<std::string_view> blobs = split_list(json.str("transcripts"));
      if (blobs.size() != result.trials) {
        throw std::invalid_argument("shard row: transcripts holds " +
                                    std::to_string(blobs.size()) +
                                    " entries, trials = " + std::to_string(result.trials));
      }
      result.per_trial_transcript.reserve(blobs.size());
      for (std::size_t t = 0; t < blobs.size(); ++t) {
        result.per_trial_transcript.push_back(transcript_from_hex(blobs[t], keys[t], t));
      }
    }
  }
  json.refuse_unread();
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
    out.result = std::move(group.front().result);
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
      out.result.merge(std::move(group[i].result));  // enforces compatibility + contiguity
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
