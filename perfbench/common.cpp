#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/digest.h"
#include "verify/fuzzer.h"

namespace perfbench {

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: a refusal leaves the set as it was
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() { restore(); }

void CpuRotation::restore() {
  if (cpus_.size() > 1) set_affinity(cpus_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  set_affinity({cpus_[turn_++ % cpus_.size()]});
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  s.low_decile = values[n / 10];
  s.high_decile = values[n - 1 - n / 10];
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at i*m/4.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    const std::size_t delta = i * m - j * 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

std::uint64_t scenario_digest(const std::string& spec_line, const fle::ScenarioResult& result) {
  std::ostringstream fields;
  fields << spec_line << '|' << result.trials << '|' << result.outcomes.fails();
  for (int leader = 0; leader < result.outcomes.domain(); ++leader) {
    fields << ',' << result.outcomes.count(static_cast<fle::Value>(leader));
  }
  fields << '|' << result.total_messages << '|' << result.max_messages << '|'
         << result.total_sync_gap << '|' << result.max_sync_gap << '|' << result.max_rounds;
  const fle::Digest256 digest = fle::Sha256::of_string(fields.str());
  std::uint64_t folded = 0;
  for (int i = 0; i < 8; ++i) folded = (folded << 8) | digest.bytes[static_cast<std::size_t>(i)];
  return folded;
}

ParsedWorkload parse_workload(const std::string& name, std::uint64_t seed, int workers) {
  ParsedWorkload parsed;
  parsed.name = name;
  parsed.lines = generate_workload(name, seed);
  parsed.sweep.threads = workers;
  for (const WorkloadLine& line : parsed.lines) {
    parsed.sweep.add(fle::verify::parse_spec(line.line));
  }
  return parsed;
}

std::vector<fle::ScenarioResult> run_scalar_oracle(const ParsedWorkload& workload) {
  fle::SweepSpec oracle = workload.sweep;
  for (fle::ScenarioSpec& spec : oracle.scenarios) spec.engine = fle::EngineKind::kScalar;
  return fle::run_sweep(oracle);
}

std::vector<std::uint64_t> digests_of(const ParsedWorkload& workload,
                                      const std::vector<fle::ScenarioResult>& results) {
  if (results.size() != workload.lines.size()) {
    throw std::runtime_error("sweep returned " + std::to_string(results.size()) +
                             " results for " + std::to_string(workload.lines.size()) +
                             " scenarios");
  }
  std::vector<std::uint64_t> digests;
  digests.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    digests.push_back(scenario_digest(workload.lines[i].line, results[i]));
  }
  return digests;
}

namespace {

std::vector<std::uint64_t> read_golden(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  std::vector<std::uint64_t> digests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::size_t index = 0;
    std::string hex;
    if (!(fields >> name >> index >> hex) || name != workload) continue;
    if (index != digests.size()) {
      throw std::runtime_error(path + ": " + workload + " digests out of order at " +
                               std::to_string(index));
    }
    digests.push_back(std::stoull(hex, nullptr, 16));
  }
  return digests;
}

}  // namespace

std::vector<std::uint64_t> golden_digests(const std::string& golden_path,
                                          const ParsedWorkload& workload, std::uint64_t seed) {
  if (seed != kDefaultSeed || golden_path.empty()) return {};
  std::vector<std::uint64_t> golden = read_golden(golden_path, workload.name);
  if (golden.size() == workload.lines.size()) return golden;
  std::fprintf(stderr, "perfbench: %s has %zu %s digests for %zu scenarios; using the oracle\n",
               golden_path.c_str(), golden.size(), workload.name.c_str(), workload.lines.size());
  return {};
}

std::size_t count_mismatches(const std::vector<std::uint64_t>& got,
                             const std::vector<std::uint64_t>& want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) mismatches += got[i] != want[i] ? 1 : 0;
  return mismatches;
}

int Tracer::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = seconds_between(origin_, Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

double Tracer::close(int index) {
  Span& span = spans_.at(static_cast<std::size_t>(index));
  span.end_s = seconds_between(origin_, Clock::now());
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("tracer: span '" + span.name + "' closed out of order");
  }
  open_.pop_back();
  return span.end_s - span.start_s;
}

double Tracer::last(const std::string& name) const {
  for (auto span = spans_.rbegin(); span != spans_.rend(); ++span) {
    if (span->name == name && span->end_s >= span->start_s) return span->end_s - span->start_s;
  }
  throw std::logic_error("tracer: no closed span '" + name + "'");
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file '" + path + "'");
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Self time: the span minus the part its direct children cover.
    double children = 0.0;
    for (const Span& child : spans_) {
      if (child.parent == static_cast<int>(i)) children += child.end_s - child.start_s;
    }
    out << "  {\"id\": " << i << ", \"name\": " << json_string(span.name)
        << ", \"parent\": " << span.parent << ", \"start_s\": " << json_number(span.start_s)
        << ", \"end_s\": " << json_number(span.end_s)
        << ", \"self_s\": " << json_number(span.end_s - span.start_s - children) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

void print_result(const std::map<std::string, Metric>& metrics, bool correct,
                  std::size_t attempted, std::size_t failed,
                  const std::vector<std::string>& notes) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(notes[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) +
           ", \"median\": " + json_number(metric.samples.median) +
           ", \"q1\": " + json_number(metric.samples.q1) +
           ", \"q3\": " + json_number(metric.samples.q3) +
           ", \"p10\": " + json_number(metric.samples.low_decile) +
           ", \"p90\": " + json_number(metric.samples.high_decile) +
           ", \"samples\": " + std::to_string(metric.samples.count);
    if (!metric.moves.empty()) {
      out += ", \"moves\": " + json_string(metric.moves) + ", \"on\": " + json_string(metric.on);
    }
    out += "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
