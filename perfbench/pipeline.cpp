#include "pipeline.h"

#include <sstream>
#include <stdexcept>
#include <thread>

#include "fabric/worker.h"
#include "verify/shard.h"

namespace perfbench {
namespace {

/// Runs `fn` inside a span when tracing.
template <typename Fn>
void stage(Tracer* tracer, const char* name, Fn&& fn) {
  if (tracer == nullptr) {
    fn();
  } else {
    tracer->time(name, fn);
  }
}

/// The same execution with its last event's value flipped: a one-trial
/// divergence for the store sync to find.
fle::ExecutionTranscript altered(const fle::ExecutionTranscript& original) {
  fle::ExecutionTranscript copy(fle::TranscriptMode::kFull);
  const auto events = original.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const fle::TranscriptEvent& e = events[i];
    copy.record(e.kind, e.a, e.b, i + 1 == events.size() ? e.c ^ 1u : e.c);
  }
  if (events.empty()) copy.decision(0, false, 1);
  return copy;
}

}  // namespace

std::unique_ptr<fle::fabric::RemoteExecutor> bind_fabric() {
  fle::fabric::FabricOptions options;
  options.planned_workers = kFabricWorkers;
  return std::make_unique<fle::fabric::RemoteExecutor>(options);
}

std::vector<fle::ScenarioResult> run_on_fabric(
    std::unique_ptr<fle::fabric::RemoteExecutor> executor, const fle::SweepSpec& sweep,
    fle::fabric::DedupStats* dedup) {
  std::vector<int> exit_codes(kFabricWorkers, -1);
  std::vector<std::thread> workers;
  for (int w = 0; w < kFabricWorkers; ++w) {
    fle::fabric::WorkerOptions options;
    options.port = executor->port();
    options.threads = 1;
    options.label = "perfbench-" + std::to_string(w);
    workers.emplace_back([options, &exit_codes, w] {
      exit_codes[static_cast<std::size_t>(w)] = fle::fabric::run_worker(options);
    });
  }
  std::vector<fle::ScenarioResult> results;
  // The executor goes before the joins on both paths: closing its sockets
  // is what releases a worker still waiting on a failed sweep.
  try {
    results = executor->run_sweep(sweep);
    if (dedup != nullptr) *dedup = executor->dedup_stats();
  } catch (...) {
    executor.reset();
    for (std::thread& worker : workers) worker.join();
    throw;
  }
  executor.reset();
  for (std::thread& worker : workers) worker.join();
  for (const int code : exit_codes) {
    if (code != 0) throw std::runtime_error("fabric worker exited " + std::to_string(code));
  }
  return results;
}

PipelineRun run_pipeline(std::unique_ptr<fle::fabric::RemoteExecutor> executor,
                         const ParsedWorkload& workload, std::uint64_t seed, Tracer* tracer) {
  PipelineRun run;
  stage(tracer, "fabric.run_sweep", [&] {
    run.results = run_on_fabric(std::move(executor), workload.sweep, &run.dedup);
  });
  stage(tracer, "report.canonical",
        [&] { run.report = fle::fabric::canonical_report(workload.sweep, run.results); });

  std::vector<fle::verify::ShardRow> rows;
  stage(tracer, "shard.parse", [&] {
    std::istringstream lines(run.report);
    std::string line;
    while (std::getline(lines, line)) rows.push_back(fle::verify::parse_shard_row(line));
  });
  run.rows = rows.size();
  std::map<std::size_t, fle::verify::MergedCase> merged;
  stage(tracer, "shard.merge", [&] { merged = fle::verify::merge_shard_rows(std::move(rows)); });
  for (auto& [index, merged_case] : merged) run.merged.push_back(std::move(merged_case.result));

  std::uint64_t total_trials = 0;
  for (const fle::ScenarioResult& result : run.merged) {
    total_trials += result.per_trial_transcript.size();
  }
  if (total_trials == 0) throw std::runtime_error("pipeline: the sweep recorded no transcripts");
  run.tampered_trial = (seed * 0x9e3779b97f4a7c15ull >> 11) % total_trials;

  std::vector<std::uint8_t> altered_store;
  stage(tracer, "store.build", [&] {
    fle::StoreWriter writer;
    for (std::size_t s = 0; s < run.merged.size(); ++s) {
      writer.add_scenario(workload.lines[s].line, run.merged[s].per_trial_transcript);
    }
    run.store = writer.finish();
    run.store_trials = writer.trial_count();
    run.store_unique_blobs = writer.unique_blobs();
  });
  stage(tracer, "store.build.altered", [&] {
    fle::StoreWriter writer;
    std::uint64_t base = 0;
    for (std::size_t s = 0; s < run.merged.size(); ++s) {
      const auto& transcripts = run.merged[s].per_trial_transcript;
      if (run.tampered_trial >= base && run.tampered_trial < base + transcripts.size()) {
        std::vector<fle::ExecutionTranscript> copy = transcripts;
        copy[run.tampered_trial - base] = altered(copy[run.tampered_trial - base]);
        writer.add_scenario(workload.lines[s].line, copy);
      } else {
        writer.add_scenario(workload.lines[s].line, transcripts);
      }
      base += transcripts.size();
    }
    altered_store = writer.finish();
  });
  const fle::StoreReader reader = fle::StoreReader::from_bytes(run.store);
  stage(tracer, "store.sync.identical", [&] {
    const fle::StoreReader copy = fle::StoreReader::from_bytes(run.store);
    run.identical = fle::sync_stores(reader, copy);
  });
  stage(tracer, "store.sync.one_diff", [&] {
    const fle::StoreReader other = fle::StoreReader::from_bytes(std::move(altered_store));
    run.one_diff = fle::sync_stores(reader, other);
  });
  return run;
}

std::vector<std::string> check_pipeline(const ParsedWorkload& workload, const PipelineRun& run) {
  std::vector<std::string> failures;
  if (run.rows != workload.lines.size() || run.merged.size() != workload.lines.size() ||
      fle::fabric::canonical_report(workload.sweep, run.merged) != run.report) {
    failures.emplace_back("shard round trip does not reproduce the report");
  }
  if (!run.identical.identical || run.identical.nodes_read_a + run.identical.nodes_read_b != 0) {
    failures.emplace_back("store synced against itself read tree nodes or diverged");
  }
  const auto& diff = run.one_diff;
  if (diff.identical || diff.divergent_trials != std::vector<std::uint64_t>{run.tampered_trial} ||
      !diff.first || diff.first->trial != run.tampered_trial) {
    failures.emplace_back("store sync did not pinpoint altered trial " +
                          std::to_string(run.tampered_trial));
  }
  return failures;
}

}  // namespace perfbench
