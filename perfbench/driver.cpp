// perfdriver — the benchmark's program: links the library and times calls
// into its public API for one workload (README.md; run.py drives it).
//
//   perfdriver emit    --workload W --seed N   the workload's spec lines
//   perfdriver digests --workload W --seed N   reference digests, golden.txt form
//   perfdriver setup   --workload W --seed N [--workers K]
//   perfdriver run     --workload W --seed N --seconds S [--workers K] [--golden F]
//   perfdriver ledger  --workload W --seed N [--workers K] [--golden F] [--trace-out F]
//
// `run` and `ledger` print their result as one JSON object on the last line
// of standard output; `setup` prints its set-up time in seconds.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/parallel.h"
#include "api/registry.h"
#include "common.h"
#include "driver.h"
#include "pipeline.h"
#include "sim/digest.h"

namespace perfbench {
namespace {

// Set during static initialization, before main: the closest the program
// itself can observe to process start.
const Clock::time_point kProcessStart = Clock::now();

// Timed repetitions a run makes however short its --seconds.
constexpr int kMinRepetitions = 10;

bool is_fabric(const std::string& workload) { return workload == "evidence-fabric"; }

/// Spawns the shared executor's worker threads with a trivial submission,
/// so pool start-up lands in set-up rather than in the first timed sweep.
void spawn_pool(int workers) {
  std::vector<fle::TrialStats> out(static_cast<std::size_t>(workers));
  fle::Executor::Batch batch;
  batch.trials = out.size();
  batch.body = [](std::size_t, std::uint64_t, void*) { return fle::TrialStats{}; };
  batch.out = &out;
  fle::Executor::shared().run(std::span<fle::Executor::Batch>(&batch, 1), workers, 1);
}

/// Everything before the first trial is submitted: registry init, spec
/// generation and parse_spec, and the executor pool — or, for the fabric
/// workload, binding the fabric driver.
struct Prepared {
  ParsedWorkload workload;
  std::unique_ptr<fle::fabric::RemoteExecutor> fabric;
  double setup_s = 0.0;
};

Prepared prepare(const Options& options) {
  fle::register_builtin_scenarios();
  Prepared prepared;
  prepared.workload = parse_workload(options.workload, options.seed, options.workers);
  if (is_fabric(options.workload)) {
    prepared.fabric = bind_fabric();
  } else {
    spawn_pool(options.workers);
  }
  prepared.setup_s = seconds_between(kProcessStart, Clock::now());
  return prepared;
}

std::size_t total_trials(const fle::SweepSpec& sweep) {
  std::size_t trials = 0;
  for (const fle::ScenarioSpec& spec : sweep.scenarios) trials += spec.trials;
  return trials;
}

std::string report_hash(const std::string& report) {
  return fle::Sha256::of_string(report).hex();
}

/// The timed run: one untimed warm-up repetition, then the workload again
/// and again until `seconds` have passed (at least kMinRepetitions times).
/// The end-to-end times are each repetition's process CPU, reported at the
/// low decile over the repetitions: on a shared host a repetition only ever
/// runs slower than the code allows, never faster, so the fastest tenth is
/// the steadiest estimate of what the code costs.  Wall times are reported
/// next to them at the median.
int run_timed(const Options& options) {
  Prepared prepared = prepare(options);
  const ParsedWorkload& workload = prepared.workload;
  const bool fabric = is_fabric(options.workload);
  const std::size_t scenarios = workload.lines.size();
  const double trials = static_cast<double>(total_trials(workload.sweep));

  std::vector<double> walls, cpus;
  std::vector<std::vector<std::uint64_t>> rep_digests;
  std::vector<std::string> rep_reports;
  std::vector<std::string> notes;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::unique_ptr<fle::fabric::RemoteExecutor> bound = std::move(prepared.fabric);

  CpuRotation rotation;
  Clock::time_point start = Clock::now();
  for (int rep = -1; rep < kMinRepetitions || seconds_between(start, Clock::now()) < options.seconds;
       ++rep) {
    if (rep == 0) start = Clock::now();  // rep -1 is the warm-up
    rotation.next();
    if (fabric && !bound) bound = bind_fabric();
    std::vector<fle::ScenarioResult> results;
    std::optional<PipelineRun> pipeline;
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    try {
      if (fabric) {
        pipeline = run_pipeline(std::move(bound), workload, options.seed, nullptr);
      } else {
        results = fle::run_sweep(workload.sweep);
      }
    } catch (const std::exception& error) {
      attempted += scenarios;
      failed += scenarios;
      notes.push_back(std::string("repetition threw: ") + error.what());
      continue;
    }
    const double wall = seconds_between(t0, Clock::now());
    const double cpu = process_cpu_seconds() - cpu0;
    if (rep >= 0) {
      walls.push_back(wall);
      cpus.push_back(cpu);
    }

    // Checks stay outside the timed region.
    attempted += scenarios;
    rep_digests.push_back(digests_of(workload, fabric ? pipeline->results : results));
    if (fabric) {
      for (const std::string& failure : check_pipeline(workload, *pipeline)) {
        ++failed;
        notes.push_back(failure);
      }
      rep_reports.push_back(report_hash(pipeline->report));
    }
  }
  rotation.restore();
  const double rss = peak_rss_mib();

  // The reference: recorded digests at the default seed, otherwise the
  // scalar oracle.  The fabric workload always runs the oracle, because
  // its report must equal the in-process one byte for byte.
  std::vector<std::uint64_t> reference = golden_digests(options.golden, workload, options.seed);
  std::optional<std::vector<fle::ScenarioResult>> oracle;
  if (fabric || reference.empty()) oracle = run_scalar_oracle(workload);
  if (reference.empty()) reference = digests_of(workload, *oracle);
  for (const auto& digests : rep_digests) {
    const std::size_t mismatches = count_mismatches(digests, reference);
    failed += mismatches;
    if (mismatches != 0) notes.push_back(std::to_string(mismatches) + " scenario digest(s) differ");
  }
  if (fabric) {
    const std::string local = report_hash(fle::fabric::canonical_report(workload.sweep, *oracle));
    for (const std::string& hash : rep_reports) {
      if (hash != local) {
        ++failed;
        notes.emplace_back("fabric report differs from the in-process report");
      }
    }
  }

  std::map<std::string, Metric> metrics;
  // Each metric's value: the low decile for CPU time (its rate is read at
  // the same repetition), the median for everything else.
  enum class Pick { kMedian, kLowDecile, kHighDecile };
  const auto put = [&](const std::string& name, const std::string& unit,
                       const std::vector<double>& samples, Pick pick = Pick::kMedian) {
    Metric metric;
    metric.unit = unit;
    metric.samples = summarize(samples);
    metric.value = pick == Pick::kLowDecile    ? metric.samples.low_decile
                   : pick == Pick::kHighDecile ? metric.samples.high_decile
                                               : metric.samples.median;
    metrics[name] = metric;
  };
  const auto per_second = [&](const std::vector<double>& seconds) {
    std::vector<double> rates;
    for (const double s : seconds) rates.push_back(trials / s);
    return rates;
  };
  put("cpu_s", "s", cpus, Pick::kLowDecile);
  put("trials_per_cpu_s", "1/s", per_second(cpus), Pick::kHighDecile);
  put("wall_s", "s", walls);
  put("trials_per_s", "1/s", per_second(walls));
  put("setup_s", "s", {prepared.setup_s});
  put("peak_rss_mib", "MiB", {rss});
  notes.push_back(std::to_string(walls.size()) + " repetition(s) of " + std::to_string(scenarios) +
                  " scenario(s), " + std::to_string(total_trials(workload.sweep)) + " trials");
  print_result(metrics, failed == 0 && !walls.empty(), attempted, failed, notes);
  return walls.empty() ? 1 : 0;
}

int emit(const Options& options) {
  std::printf("# perfbench workload %s, seed %" PRIu64 "\n", options.workload.c_str(),
              options.seed);
  std::string family;
  for (const WorkloadLine& line : generate_workload(options.workload, options.seed)) {
    if (line.family != family) {
      family = line.family;
      std::printf("# %s\n", family.c_str());
    }
    std::printf("%s\n", line.line.c_str());
  }
  return 0;
}

int print_digests(const Options& options) {
  const ParsedWorkload workload = parse_workload(options.workload, options.seed, options.workers);
  const std::vector<std::uint64_t> digests = digests_of(workload, run_scalar_oracle(workload));
  for (std::size_t i = 0; i < digests.size(); ++i) {
    std::printf("%s %zu %016" PRIx64 "\n", options.workload.c_str(), i, digests[i]);
  }
  return 0;
}

int setup_only(const Options& options) {
  const Prepared prepared = prepare(options);
  std::printf("%.17g\n", prepared.setup_s);
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfdriver emit|digests|setup|run|ledger --workload W --seed N\n"
               "         [--seconds S] [--workers K] [--golden FILE] [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage();
  const std::string mode = argv[1];
  Options options;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--workers") {
        options.workers = std::stoi(value);
      } else if (arg == "--golden") {
        options.golden = value;
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        usage();
      }
    }
    if (options.workers < 1) usage();
    generate_workload(options.workload, options.seed);  // rejects unknown names
    if (mode == "emit") return emit(options);
    if (mode == "digests") return print_digests(options);
    if (mode == "setup") return setup_only(options);
    if (mode == "run") return run_timed(options);
    if (mode == "ledger") return run_ledger(options);
    usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfdriver: %s\n", error.what());
    return 1;
  }
}
