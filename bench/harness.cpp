#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fle::bench {

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

namespace {

/// The spec and aggregate columns every scenario row starts with.
JsonObject scenario_row(const ScenarioSpec& spec, const std::string& label,
                        const ScenarioResult& result) {
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
      .set("target", spec.target)
      .set("fail_rate", result.outcomes.fail_rate())
      .set("target_rate",
           result.outcomes.trials() > 0 && spec.target < static_cast<Value>(spec.n)
               ? result.outcomes.leader_rate(spec.target)
               : 0.0)
      .set("max_bias", result.outcomes.trials() > 0 ? result.outcomes.max_bias() : 0.0)
      .set("mean_messages", result.mean_messages())
      .set("max_messages", result.max_messages)
      .set("max_sync_gap", result.max_sync_gap)
      .set("mean_sync_gap", result.mean_sync_gap())
      .set("max_rounds", result.max_rounds);
  return row;
}

}  // namespace

Harness::Harness(std::string file_id, std::string title, std::string claim, int argc,
                 char** argv)
    : file_id_(std::move(file_id)), title_(std::move(title)), claim_(std::move(claim)) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: %s\n"
                 "  takes no arguments; runs the whole table into BENCH_%s.json\n",
                 argv[0], file_id_.c_str());
    std::exit(2);
  }
  std::printf("\n================================================================\n");
  std::printf("%s\n", title_.c_str());
  std::printf("%s\n", claim_.c_str());
  std::printf("================================================================\n");
}

Harness::~Harness() {
  const std::string path = "BENCH_" + file_id_ + ".json";
  std::ofstream out(path);
  if (!out) return;
  out << "{\n  \"id\": \"" << escape(title_) << "\",\n  \"claim\": \"" << escape(claim_)
      << "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out << "    " << rows_[i].str() << (i + 1 < rows_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void Harness::note(const std::string& text) { std::printf("-- %s\n", text.c_str()); }

void Harness::row_header(const std::string& cols) {
  std::printf("%s\n", cols.c_str());
  std::printf("----------------------------------------------------------------\n");
}

std::vector<ScenarioResult> Harness::run_sweep(const SweepSpec& sweep,
                                               const std::vector<std::string>& labels) {
  std::vector<ScenarioResult> results = fle::run_sweep(sweep);
  for (std::size_t s = 0; s < results.size(); ++s) {
    const std::string label = s < labels.size() ? labels[s] : std::string();
    JsonObject row = scenario_row(sweep.scenarios[s], label, results[s]);
    // Every result of a sweep reports the sweep's wall time (api/sweep.h).
    row.set("sweep_wall_seconds", results[s].wall_seconds)
        .set("peak_rss_kib", peak_rss_kib())
        .set("sweep", true);
    rows_.push_back(std::move(row));
  }
  return results;
}

void Harness::add_row(JsonObject row) { rows_.push_back(std::move(row)); }

void Harness::annotate_row(std::size_t index, const std::string& key, double value) {
  if (index >= rows_.size()) return;
  rows_[index].set(key, value);
}

void Harness::annotate(const std::string& key, double value) {
  if (rows_.empty()) return;
  rows_.back().set(key, value);
}

}  // namespace fle::bench
