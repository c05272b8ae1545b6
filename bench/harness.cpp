#include "harness.h"

// Counting allocator shim: every bench binary links this library, so the
// shim replaces the global operator new/delete for the whole process and
// makes allocation churn measurable per scenario run.
#include "core/counting_new.inc"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>

#include "api/specialize.h"
#include "verify/fuzzer.h"
#include "verify/shard.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fle::bench {

std::uint64_t allocation_count() {
  return counting_new::allocations.load(std::memory_order_relaxed);
}

std::uint64_t peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // KiB on Linux
#endif
#else
  return 0;
#endif
}

BenchArgs::BenchArgs(int argc, char** argv) {
  const auto fail = [&] {
    std::fprintf(stderr, "usage: %s [--shard I/M] [--merge]\n", argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--merge") == 0) {
      merge = true;
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      if (i + 1 >= argc) fail();
      const char* text = argv[++i];
      char* end = nullptr;
      shard_index = static_cast<int>(std::strtol(text, &end, 10));
      if (end == text || *end != '/') fail();
      const char* count = end + 1;
      shard_count = static_cast<int>(std::strtol(count, &end, 10));
      if (end == count || *end != '\0' || shard_count < 1 || shard_index < 0 ||
          shard_index >= shard_count) {
        fail();
      }
    } else {
      fail();
    }
  }
  if (merge && shard_count > 1) fail();  // merge reads files, it does not run
}

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
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

}  // namespace

JsonObject& JsonObject::raw(const std::string& key, std::string rendered) {
  fields_.emplace_back(key, std::move(rendered));
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += escape(value);
  quoted += '"';
  return raw(key, std::move(quoted));
}

JsonObject& JsonObject::set(const std::string& key, const char* value) {
  return set(key, std::string(value));
}

JsonObject& JsonObject::set(const std::string& key, double value) {
  return raw(key, render_double(value));
}

JsonObject& JsonObject::set(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::set(const std::string& key, int value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::set(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += escape(fields_[i].first);
    out += "\": ";
    out += fields_[i].second;
  }
  out += '}';
  return out;
}

Harness::Harness(std::string file_id, std::string title, std::string claim, BenchArgs args)
    : file_id_(std::move(file_id)),
      title_(std::move(title)),
      claim_(std::move(claim)),
      args_(args) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title_.c_str());
  if (args_.merge) {
    std::printf("(merging shard files into BENCH_%s.json)\n", file_id_.c_str());
  } else if (args_.sharded()) {
    std::printf("(shard %d/%d: partial trial windows, rows go to the shard JSONL)\n",
                args_.shard_index, args_.shard_count);
  }
  std::printf("%s\n", claim_.c_str());
  std::printf("================================================================\n");
}

Harness::~Harness() {
  // A failed merge writes nothing: clobbering a previously good
  // BENCH_<id>.json with an empty document would make the failure look
  // like a successful zero-row run to downstream tooling.
  if (!write_output_) return;
  if (args_.sharded()) {
    const std::string path = "BENCH_" + file_id_ + ".shard_" +
                             std::to_string(args_.shard_index) + "_of_" +
                             std::to_string(args_.shard_count) + ".jsonl";
    std::ofstream out(path);
    if (!out) return;
    for (const std::string& row : shard_rows_) out << row << "\n";
    for (std::size_t i = 0; i < shard_passthrough_.size(); ++i) {
      verify::ShardRow row;
      row.case_index = shard_passthrough_cases_[i];
      row.passthrough = shard_passthrough_[i].str();
      out << verify::format_shard_row(row) << "\n";
    }
    return;
  }
  const std::string path = "BENCH_" + file_id_ + ".json";
  std::ofstream out(path);
  if (!out) return;
  out << "{\n  \"id\": \"" << escape(title_) << "\",\n  \"claim\": \"" << escape(claim_)
      << "\",\n  \"rows\": [\n";
  std::vector<std::string> rendered;
  if (args_.merge) {
    rendered = merged_rows_;
  } else {
    rendered.reserve(rows_.size());
    for (const JsonObject& row : rows_) rendered.push_back(row.str());
  }
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    out << "    " << rendered[i] << (i + 1 < rendered.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void Harness::note(const std::string& text) { std::printf("-- %s\n", text.c_str()); }

void Harness::row_header(const std::string& cols) {
  std::printf("%s\n", cols.c_str());
  std::printf("----------------------------------------------------------------\n");
}

bool Harness::apply_shard(ScenarioSpec& spec) const {
  if (!args_.sharded()) return true;
  const auto m = static_cast<std::size_t>(args_.shard_count);
  const auto i = static_cast<std::size_t>(args_.shard_index);
  const std::size_t lo = spec.trials * i / m;
  const std::size_t hi = spec.trials * (i + 1) / m;
  if (hi == lo) return false;  // fewer trials than shards: nothing here
  spec.trial_offset = lo;
  spec.trial_count = hi - lo;
  return true;
}

JsonObject Harness::display_row(const ScenarioSpec& spec, const std::string& label,
                                const ScenarioResult& result, std::uint64_t allocations,
                                bool in_sweep) const {
  JsonObject row;
  if (!label.empty()) row.set("label", label);
  row.set("topology", to_string(spec.topology))
      .set("protocol", spec.protocol)
      .set("protocol_name", result.protocol_name)
      .set("deviation", spec.deviation)
      .set("n", spec.n)
      .set("trials", static_cast<std::uint64_t>(spec.trials))
      .set("seed", spec.seed)
      .set("scheduler", to_string(spec.scheduler))
      .set("threads", spec.threads)
      .set("engine", route_to_lanes(spec) ? "lanes" : "scalar")
      .set("target", spec.target)
      .set("fail_rate", result.outcomes.fail_rate())
      .set("target_rate",
           result.outcomes.trials() > 0 && spec.target < static_cast<Value>(spec.n)
               ? result.outcomes.leader_rate(spec.target)
               : 0.0)
      .set("max_bias", result.outcomes.trials() > 0 ? result.outcomes.max_bias() : 0.0)
      .set("mean_messages", result.mean_messages)
      .set("max_messages", result.max_messages)
      .set("max_sync_gap", result.max_sync_gap)
      .set("mean_sync_gap", result.mean_sync_gap)
      .set("max_rounds", result.max_rounds)
      .set("wall_seconds", result.wall_seconds)
      .set("trials_per_second",
           result.wall_seconds > 0.0
               ? static_cast<double>(result.trials) / result.wall_seconds
               : 0.0)
      .set("allocations", allocations)
      .set("allocations_per_trial",
           result.trials > 0
               ? static_cast<double>(allocations) / static_cast<double>(result.trials)
               : 0.0)
      .set("peak_rss_kib", peak_rss_kib());
  if (in_sweep) row.set("sweep", true);
  return row;
}

void Harness::record(std::size_t case_index, const ScenarioSpec& spec,
                     const std::string& label, const ScenarioResult& result,
                     std::uint64_t allocations, bool in_sweep) {
  last_row_was_passthrough_ = false;
  if (args_.sharded()) {
    verify::ShardRow row;
    row.case_index = case_index;
    row.label = label;
    row.spec_line = verify::format_spec(verify::shard_key_spec(spec));
    row.allocations = allocations;
    row.result = result;
    shard_rows_.push_back(verify::format_shard_row(row));
  } else {
    rows_.push_back(display_row(spec, label, result, allocations, in_sweep));
  }
}

ScenarioResult Harness::run(const ScenarioSpec& spec, const std::string& label) {
  ScenarioSpec windowed = spec;
  const std::size_t case_index = case_counter_++;
  if (!apply_shard(windowed)) {
    // This shard's slice of the scenario is empty: return a zero-trial
    // result (the printed table shows zeros; no row is recorded, the other
    // shards cover the trials).
    ScenarioResult empty(std::max(spec.n, 1));
    empty.spec_trials = spec.trials;
    empty.base_seed = spec.seed;
    return empty;
  }
  const std::uint64_t allocations_before = allocation_count();
  ScenarioResult result = run_scenario(windowed);
  const std::uint64_t allocations = allocation_count() - allocations_before;
  record(case_index, windowed, label, result, allocations, /*in_sweep=*/false);
  return result;
}

std::vector<ScenarioResult> Harness::run_sweep(SweepSpec sweep,
                                               const std::vector<std::string>& labels) {
  // Window every scenario for this shard; empty slices drop out of the
  // executed sweep but keep their case index so shards stay aligned.
  std::vector<std::size_t> case_of_scenario;
  std::vector<std::size_t> original_of_executed;
  std::vector<std::size_t> executed_of_result(sweep.scenarios.size(),
                                              static_cast<std::size_t>(-1));
  SweepSpec windowed;
  windowed.threads = sweep.threads;
  windowed.chunk = sweep.chunk;
  for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
    ScenarioSpec spec = sweep.scenarios[i];
    const std::size_t case_index = case_counter_++;
    if (!apply_shard(spec)) continue;
    executed_of_result[i] = windowed.scenarios.size();
    original_of_executed.push_back(i);
    windowed.add(std::move(spec));
    case_of_scenario.push_back(case_index);
  }

  const std::uint64_t allocations_before = allocation_count();
  const std::vector<ScenarioResult> executed = fle::run_sweep(windowed);
  const std::uint64_t total_allocations = allocation_count() - allocations_before;

  // Attribute the sweep's allocations evenly (remainder on the first row)
  // so the recorded rows still sum to the measured total.
  const std::size_t rows = executed.size();
  const std::uint64_t share = rows > 0 ? total_allocations / rows : 0;
  const std::uint64_t remainder = rows > 0 ? total_allocations % rows : 0;
  for (std::size_t s = 0; s < rows; ++s) {
    const std::size_t original = original_of_executed[s];
    const std::string label = original < labels.size() ? labels[original] : std::string();
    record(case_of_scenario[s], windowed.scenarios[s], label, executed[s],
           share + (s == 0 ? remainder : 0), /*in_sweep=*/true);
  }

  // Hand back one result per requested scenario, zero-filled where this
  // shard's slice was empty.
  std::vector<ScenarioResult> results;
  results.reserve(sweep.scenarios.size());
  for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
    if (executed_of_result[i] != static_cast<std::size_t>(-1)) {
      results.push_back(executed[executed_of_result[i]]);
    } else {
      ScenarioResult empty(std::max(sweep.scenarios[i].n, 1));
      empty.spec_trials = sweep.scenarios[i].trials;
      empty.base_seed = sweep.scenarios[i].seed;
      results.push_back(std::move(empty));
    }
  }
  return results;
}

int Harness::merge_shards() {
  namespace fs = std::filesystem;
  const std::string prefix = "BENCH_" + file_id_ + ".shard_";
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(fs::current_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".jsonl") == 0) {
      files.push_back(entry.path().string());
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "no %s*.jsonl shard files in the working directory\n",
                 prefix.c_str());
    return 1;
  }
  try {
    std::vector<verify::ShardRow> rows;
    for (const std::string& path : files) {
      std::ifstream in(path);
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty()) rows.push_back(verify::parse_shard_row(line));
      }
    }
    const auto merged = verify::merge_shard_rows(std::move(rows));
    for (const auto& [index, merged_case] : merged) {
      (void)index;
      if (!merged_case.passthrough.empty()) {
        merged_rows_.push_back(merged_case.passthrough);
        continue;
      }
      const ScenarioSpec spec = verify::parse_spec(merged_case.spec_line);
      merged_rows_.push_back(display_row(spec, merged_case.label, merged_case.result,
                                         merged_case.allocations, /*in_sweep=*/false)
                                 .str());
    }
    std::printf("merged %zu shard files (%zu rows) into BENCH_%s.json\n", files.size(),
                merged_rows_.size(), file_id_.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "merge failed: %s (keeping any existing BENCH_%s.json)\n",
                 error.what(), file_id_.c_str());
    write_output_ = false;
    return 1;
  }
}

void Harness::add_row(JsonObject row) {
  const std::size_t case_index = case_counter_++;
  last_row_was_passthrough_ = true;
  if (args_.sharded()) {
    // Hand-built rows are not trial-sharded — every shard computes them
    // identically, so shard 0 alone carries them into the merge.
    if (args_.shard_index == 0) {
      shard_passthrough_.push_back(std::move(row));
      shard_passthrough_cases_.push_back(case_index);
    }
    return;
  }
  rows_.push_back(std::move(row));
}

void Harness::annotate_row(std::size_t index, const std::string& key, double value) {
  if (args_.sharded()) {
    // Same rationale as annotate(): per-row derived values cannot merge
    // from partial trials.
    if (!annotate_warned_) {
      annotate_warned_ = true;
      std::fprintf(stderr,
                   "warning: annotate_row(%zu, \"%s\", ...) is dropped under --shard "
                   "(derived from partial trials; re-run unsharded for it)\n",
                   index, key.c_str());
    }
    return;
  }
  if (index >= rows_.size()) return;
  rows_[index].set(key, value);
}

void Harness::annotate(const std::string& key, double value) {
  if (args_.sharded()) {
    if (last_row_was_passthrough_) {
      if (args_.shard_index == 0 && !shard_passthrough_.empty()) {
        shard_passthrough_.back().set(key, value);
      }
      return;
    }
    // Annotations on scenario rows derive from this shard's partial
    // trials; merging them is not meaningful, so they are dropped loudly.
    if (!annotate_warned_) {
      annotate_warned_ = true;
      std::fprintf(stderr,
                   "warning: annotate(\"%s\", ...) on a scenario row is dropped under "
                   "--shard (derived from partial trials; re-run unsharded for it)\n",
                   key.c_str());
    }
    return;
  }
  if (rows_.empty()) return;
  rows_.back().set(key, value);
}

}  // namespace fle::bench
