// The traced run: the per-layer ledger.
//
// Spans are recorded around calls into each layer's public API, from the
// benchmark's own code; nothing inside the library is instrumented.  The
// ledger visits every workload, so each traced run reports every layer, and
// each metric names the end-to-end metric and workload it should move.

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "common.h"
#include "core/rng.h"
#include "core/shamir.h"
#include "driver.h"
#include "fabric/wire.h"
#include "pipeline.h"
#include "verify/fuzzer.h"
#include "verify/shard.h"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kParseRepetitions = 20;
constexpr int kSweepPairs = 5;
constexpr int kShamirIterations = 2000;

class Ledger {
 public:
  explicit Ledger(const Options& options) : options_(options) {}

  int run();

 private:
  void put(const std::string& name, double value, const std::string& unit,
           const std::string& moves, const std::string& on) {
    Metric metric;
    metric.value = value;
    metric.unit = unit;
    metric.samples = summarize({value});
    metric.moves = moves;
    metric.on = on;
    metrics_[name] = metric;
  }

  void check(const std::vector<std::uint64_t>& got, const std::vector<std::uint64_t>& want,
             const std::string& what) {
    attempted_ += got.size();
    const std::size_t mismatches = count_mismatches(got, want);
    failed_ += mismatches;
    if (mismatches != 0) {
      notes_.push_back(what + ": " + std::to_string(mismatches) + " digest(s) differ");
    }
  }

  void check_that(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      notes_.push_back(what);
    }
  }

  void workload(const std::string& name);
  void fabric_layers(const ParsedWorkload& workload, const std::vector<std::uint64_t>& reference,
                     const std::vector<fle::ScenarioResult>& local);
  void shamir_layer();

  const Options& options_;
  Tracer tracer_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<double> parse_us_per_line_;
  double traced_sweeps_s_ = 0.0;
  double untraced_sweeps_s_ = 0.0;
};

void Ledger::workload(const std::string& name) {
  const int top = tracer_.open("workload:" + name);
  const ParsedWorkload workload = parse_workload(name, options_.seed, options_.workers);

  tracer_.time("verify.parse_spec", [&] {
    for (int r = 0; r < kParseRepetitions; ++r) {
      const Clock::time_point t0 = Clock::now();
      for (const WorkloadLine& line : workload.lines) (void)fle::verify::parse_spec(line.line);
      parse_us_per_line_.push_back(seconds_between(t0, Clock::now()) * 1e6 /
                                   static_cast<double>(workload.lines.size()));
    }
  });

  // The scalar oracle is the reference away from the default seed and the
  // baseline the lane engines are measured against.
  std::vector<std::uint64_t> reference = golden_digests(options_.golden, workload, options_.seed);
  std::optional<std::vector<fle::ScenarioResult>> oracle;
  double scalar_wall = 0.0;
  if (reference.empty() || name == "lane-ring") {
    scalar_wall =
        tracer_.time("sweep.scalar_oracle", [&] { oracle = run_scalar_oracle(workload); });
  }
  if (reference.empty()) {
    reference = digests_of(workload, *oracle);
  } else if (oracle) {
    check(digests_of(workload, *oracle), reference, name + " scalar oracle");
  }

  // api/scenario: every scenario alone, one thread, grouped by family.
  std::map<std::string, double> busy;
  std::map<std::string, std::uint64_t> messages;
  double busy_total = 0.0;
  std::vector<std::uint64_t> standalone;
  for (std::size_t i = 0; i < workload.lines.size(); ++i) {
    fle::ScenarioSpec spec = workload.sweep.scenarios[i];
    spec.threads = 1;
    const std::string& family = workload.lines[i].family;
    fle::ScenarioResult result{1};
    const double seconds =
        tracer_.time("scenario:" + family, [&] { result = fle::run_scenario(spec); });
    busy[family] += seconds;
    messages[family] += result.total_messages;
    busy_total += seconds;
    standalone.push_back(scenario_digest(workload.lines[i].line, result));
  }
  check(standalone, reference, name + " standalone scenarios");

  // api/sweep + executor: the same scenarios as one submission.
  fle::SweepSpec one_thread = workload.sweep;
  one_thread.threads = 1;
  std::vector<fle::ScenarioResult> results;
  const double wall_one =
      tracer_.time("sweep.threads1", [&] { results = fle::run_sweep(one_thread); });
  check(digests_of(workload, results), reference, name + " one-thread sweep");

  std::vector<double> untraced;
  for (int pair = 0; pair < kSweepPairs; ++pair) {
    const Clock::time_point t0 = Clock::now();
    results = fle::run_sweep(workload.sweep);
    untraced.push_back(seconds_between(t0, Clock::now()));
    untraced_sweeps_s_ += untraced.back();
    check(digests_of(workload, results), reference, name + " sweep");
    traced_sweeps_s_ += tracer_.time("sweep", [&] { results = fle::run_sweep(workload.sweep); });
    check(digests_of(workload, results), reference, name + " traced sweep");
  }
  const double wall = summarize(untraced).median;

  put("sweep.routing_penalty." + name, wall_one / busy_total, "ratio", "cpu_s", name);
  put("executor.busy_share." + name,
      busy_total / (static_cast<double>(options_.workers) * wall), "ratio", "cpu_s", name);
  if (name == "lane-ring") {
    put("lanes.speedup_vs_scalar", scalar_wall / wall, "ratio", "cpu_s", name);
  }
  for (const auto& [family, seconds] : busy) {
    put("scenario." + family + ".busy_s", seconds, "s", "cpu_s", name);
    if (messages[family] != 0) {
      put("scenario." + family + ".ns_per_msg",
          seconds * 1e9 / static_cast<double>(messages[family]), "ns", "cpu_s", name);
    }
  }
  if (name == "scalar-paper") shamir_layer();
  if (name == "evidence-fabric") fabric_layers(workload, reference, results);
  tracer_.close(top);
}

void Ledger::fabric_layers(const ParsedWorkload& workload,
                           const std::vector<std::uint64_t>& reference,
                           const std::vector<fle::ScenarioResult>& local) {
  const std::string on = "evidence-fabric";
  const std::string local_report = fle::fabric::canonical_report(workload.sweep, local);
  std::size_t trials = 0;
  std::size_t events = 0;
  std::vector<const fle::ExecutionTranscript*> transcripts;
  for (const fle::ScenarioResult& result : local) {
    trials += result.trials;
    for (const fle::ExecutionTranscript& t : result.per_trial_transcript) {
      transcripts.push_back(&t);
      events += t.size();
    }
  }

  // fabric: the same sweep in-process at the fleet's width, a fleet
  // standing up for a one-trial sweep, then the traced pipeline.
  fle::SweepSpec fleet_width = workload.sweep;
  fleet_width.threads = kFabricWorkers;
  std::vector<fle::ScenarioResult> results;
  const double local_wall =
      tracer_.time("sweep.fleet_width", [&] { results = fle::run_sweep(fleet_width); });
  check(digests_of(workload, results), reference, on + " fleet-width sweep");

  fle::SweepSpec tiny;
  tiny.add(workload.sweep.scenarios.front());
  tiny.scenarios.front().trials = 1;
  const double connect =
      tracer_.time("fabric.connect", [&] { (void)run_on_fabric(bind_fabric(), tiny); });

  PipelineRun run;
  tracer_.time("pipeline", [&] {
    run = run_pipeline(bind_fabric(), workload, options_.seed, &tracer_);
  });
  check(digests_of(workload, run.results), reference, on + " fabric sweep");
  for (const std::string& failure : check_pipeline(workload, run)) check_that(false, failure);
  check_that(run.report == local_report, "fabric report differs from the in-process report");

  const double report_mib = static_cast<double>(run.report.size()) / kMiB;
  put("fabric.overhead_vs_local", tracer_.last("fabric.run_sweep") / local_wall, "ratio",
      "cpu_s", on);
  put("fabric.connect_s", connect, "s", "setup_s", on);
  put("fabric.dedup.keys_offered", static_cast<double>(run.dedup.keys_offered), "count", "cpu_s",
      on);
  put("fabric.dedup.blobs_shipped", static_cast<double>(run.dedup.blobs_shipped), "count",
      "cpu_s", on);
  put("report.canonical.ms", tracer_.last("report.canonical") * 1e3, "ms", "cpu_s", on);
  put("report.bytes", static_cast<double>(run.report.size()), "bytes", "cpu_s", on);
  put("shard.parse.mib_per_s", report_mib / tracer_.last("shard.parse"), "MiB/s", "cpu_s", on);
  put("shard.merge.ms", tracer_.last("shard.merge") * 1e3, "ms", "cpu_s", on);
  put("shard.bytes_per_trial", static_cast<double>(run.report.size()) / static_cast<double>(trials),
      "bytes", "cpu_s", on);
  put("store.build.mib_per_s",
      static_cast<double>(run.store.size()) / kMiB / tracer_.last("store.build"), "MiB/s",
      "cpu_s", on);
  put("store.bytes_per_trial",
      static_cast<double>(run.store.size()) / static_cast<double>(run.store_trials), "bytes",
      "cpu_s", on);
  put("store.unique_blob_share",
      static_cast<double>(run.store_unique_blobs) / static_cast<double>(run.store_trials), "ratio",
      "cpu_s", on);
  put("store.sync.identical.nodes_read",
      static_cast<double>(run.identical.nodes_read_a + run.identical.nodes_read_b), "count",
      "cpu_s", on);
  put("store.sync.one_diff.nodes_read",
      static_cast<double>(run.one_diff.nodes_read_a + run.one_diff.nodes_read_b), "count",
      "cpu_s", on);
  put("store.sync.one_diff.us", tracer_.last("store.sync.one_diff") * 1e6, "us", "cpu_s", on);

  // verify/shard: row formatting alone.
  std::vector<fle::verify::ShardRow> rows(local.size());
  for (std::size_t s = 0; s < local.size(); ++s) {
    rows[s].case_index = s;
    rows[s].spec_line =
        fle::verify::format_spec(fle::verify::shard_key_spec(workload.sweep.scenarios[s]));
    rows[s].result = local[s];
  }
  std::size_t formatted_bytes = 0;
  const double format_s = tracer_.time("shard.format", [&] {
    for (const fle::verify::ShardRow& row : rows) {
      formatted_bytes += fle::verify::format_shard_row(row).size();
    }
  });
  put("shard.format.mib_per_s", static_cast<double>(formatted_bytes) / kMiB / format_s, "MiB/s",
      "cpu_s", on);

  // sim/transcript + sim/digest.
  std::vector<std::vector<std::uint8_t>> blobs;
  blobs.reserve(transcripts.size());
  const double encode_s = tracer_.time("transcript.encode", [&] {
    for (const fle::ExecutionTranscript* t : transcripts) blobs.push_back(t->encode());
  });
  std::size_t decode_mismatches = 0;
  const double decode_s = tracer_.time("transcript.decode", [&] {
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      decode_mismatches += fle::ExecutionTranscript::decode(blobs[i]) == *transcripts[i] ? 0 : 1;
    }
  });
  check_that(decode_mismatches == 0, "transcript codec round trip changed " +
                                         std::to_string(decode_mismatches) + " transcript(s)");
  std::size_t zero_keys = 0;
  const double key_s = tracer_.time("digest.content_key", [&] {
    for (const fle::ExecutionTranscript* t : transcripts) {
      zero_keys += t->content_key().is_zero() ? 1 : 0;
    }
  });
  check_that(zero_keys == 0, "zero content key");
  const double event_count = static_cast<double>(events);
  put("transcript.encode.ns_per_event", encode_s * 1e9 / event_count, "ns", "cpu_s", on);
  put("transcript.decode.ns_per_event", decode_s * 1e9 / event_count, "ns", "cpu_s", on);
  put("transcript.events_per_trial", event_count / static_cast<double>(trials), "count", "cpu_s",
      on);
  put("digest.content_key.us_per_trial",
      key_s * 1e6 / static_cast<double>(transcripts.size()), "us", "cpu_s", on);

  // fabric/wire: the run's result rows as frames, and back.
  std::vector<std::string> lines;
  {
    std::istringstream report(run.report);
    std::string line;
    while (std::getline(report, line)) lines.push_back(line);
  }
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t frame_bytes = 0;
  const double wire_encode_s = tracer_.time("wire.encode", [&] {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      fle::fabric::ResultMsg message;
      message.window = i;
      message.row = lines[i];
      frames.push_back(fle::fabric::encode_frame(message));
      frame_bytes += frames.back().size();
    }
  });
  std::size_t frame_mismatches = 0;
  const double wire_parse_s = tracer_.time("wire.parse", [&] {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto parsed = fle::fabric::try_parse_frame(frames[i]);
      frame_mismatches += parsed && parsed->consumed == frames[i].size() &&
                                  parsed->frame.result.row == lines[i]
                              ? 0
                              : 1;
    }
  });
  check_that(frame_mismatches == 0, "wire frames did not round-trip");
  const double frame_mib = static_cast<double>(frame_bytes) / kMiB;
  put("wire.encode.mib_per_s", frame_mib / wire_encode_s, "MiB/s", "cpu_s", on);
  put("wire.parse.mib_per_s", frame_mib / wire_parse_s, "MiB/s", "cpu_s", on);
}

// core/shamir: checked reconstruction at each (n, t) of the graph rows.
void Ledger::shamir_layer() {
  for (const int n : {8, 12, 16}) {
    const int t = n / 2 + 1;
    fle::Xoshiro256 rng(options_.seed ^ static_cast<std::uint64_t>(n));
    const fle::Fp secret = fle::Fp::random(rng);
    const std::vector<fle::Share> shares = fle::shamir_share(secret, t, n, rng);
    std::size_t wrong = 0;
    const std::string name =
        "shamir.reconstruct_checked.n" + std::to_string(n) + "_t" + std::to_string(t);
    const double seconds = tracer_.time(name, [&] {
      for (int i = 0; i < kShamirIterations; ++i) {
        const auto recovered = fle::shamir_reconstruct_checked(shares, t);
        wrong += recovered && *recovered == secret ? 0 : 1;
      }
    });
    check_that(wrong == 0, name + " recovered the wrong secret");
    put(name + ".us", seconds * 1e6 / kShamirIterations, "us", "cpu_s", "scalar-paper");
  }
}

int Ledger::run() {
  fle::register_builtin_scenarios();
  for (const std::string& name : workload_names()) workload(name);
  put("trace.overhead", traced_sweeps_s_ / untraced_sweeps_s_, "ratio", "cpu_s", "all");
  const Summary parse = summarize(parse_us_per_line_);
  put("verify.parse_spec.us_per_line", parse.median, "us", "setup_s", "all");
  metrics_["verify.parse_spec.us_per_line"].samples = parse;
  if (!options_.trace_out.empty()) tracer_.write_json(options_.trace_out);
  notes_.push_back("per-layer ledger over every workload (requested: " + options_.workload + ")");
  print_result(metrics_, failed_ == 0, attempted_, failed_, notes_);
  return 0;
}

}  // namespace

int run_ledger(const Options& options) { return Ledger(options).run(); }

}  // namespace perfbench
