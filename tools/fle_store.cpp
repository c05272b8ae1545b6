// fle_store — the content-addressed transcript store CLI (src/store/).
//
//   fle_store build --out sweep.flst report.jsonl
//                                      build a store from one fle_sweep
//                                      report (--local or fabric: the same
//                                      bytes, so the same store)
//   fle_store diff a.flst b.flst       O(diff) sync: equal roots prove
//                                      equality without reading a tree
//                                      node; otherwise only divergent
//                                      subtrees are descended and the first
//                                      divergent trial is diffed event by
//                                      event.  Exit 1 when the stores
//                                      differ
//   fle_store ls store.flst            scenarios, trial count, dedup and
//                                      size counters, root hash
//   fle_store cat store.flst --trial N pretty-print one trial's events
//   fle_store tamper a.flst --out b.flst --trial N
//                                      rewrite one trial's transcript with
//                                      its last event perturbed (hashes
//                                      recomputed) — the testing aid the CI
//                                      store job diffs against
//
// Exit code 0 on success; diff exits 1 on divergence; 2 on usage errors
// and unreadable or malformed inputs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cli_parse.h"
#include "store/store.h"
#include "verify/shard.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s build --out STORE REPORT.jsonl\n"
               "       %s diff A B [--max-divergent N]\n"
               "       %s ls STORE\n"
               "       %s cat STORE --trial N\n"
               "       %s tamper STORE --out OUT --trial N\n",
               argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// Parses every row of the report and folds the transcript-recording
/// scenarios into a StoreWriter through merge_shard_rows, which requires
/// each scenario's rows to cover all of its trials.
fle::StoreWriter build_writer(const char* argv0, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  std::vector<fle::verify::ShardRow> rows;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    try {
      rows.push_back(fle::verify::parse_shard_row(line));
    } catch (const std::exception& error) {
      throw std::runtime_error(path + ":" + std::to_string(line_number) + ": " + error.what());
    }
    if (rows.back().transcripts_elided) {
      throw std::runtime_error(path + ":" + std::to_string(line_number) +
                               ": row is transcripts-elided (its blobs travel beside it in a "
                               "fabric result frame); build stores from full reports");
    }
  }
  // Drop rows with nothing to store (scenarios run without transcripts=1)
  // before grouping — they have no leaves.
  std::size_t skipped = 0;
  std::vector<fle::verify::ShardRow> recording;
  for (fle::verify::ShardRow& row : rows) {
    if (!row.result.transcripts_recorded) {
      ++skipped;
      continue;
    }
    recording.push_back(std::move(row));
  }
  if (recording.empty()) {
    throw std::runtime_error("no transcript-recording rows in the input (add transcripts=1 "
                             "to the sweep specs); " +
                             std::to_string(skipped) + " row(s) without transcripts skipped");
  }
  if (skipped != 0) {
    std::fprintf(stderr, "%s: skipped %zu row(s) without recorded transcripts\n", argv0, skipped);
  }
  const std::map<std::size_t, fle::verify::MergedCase> merged =
      fle::verify::merge_shard_rows(std::move(recording));
  fle::StoreWriter writer;
  for (const auto& [case_index, merged_case] : merged) {
    writer.add_scenario(merged_case.spec_line, merged_case.result.per_trial_transcript);
  }
  return writer;
}

int run_build(const char* argv0, const std::string& out_path, const std::string& report_path) {
  const fle::StoreWriter writer = build_writer(argv0, report_path);
  writer.write_file(out_path);
  const fle::StoreReader reader = fle::StoreReader::open_file(out_path);
  std::printf("%s: %llu trial(s), %llu unique blob(s), depth %d, root %s\n", out_path.c_str(),
              static_cast<unsigned long long>(reader.trial_count()),
              static_cast<unsigned long long>(reader.unique_blobs()), reader.depth(),
              reader.root_hash().hex().c_str());
  return 0;
}

int run_diff(const std::string& path_a, const std::string& path_b, std::size_t max_divergent) {
  const fle::StoreReader a = fle::StoreReader::open_file(path_a);
  const fle::StoreReader b = fle::StoreReader::open_file(path_b);
  const fle::SyncReport report = fle::sync_stores(a, b, max_divergent);
  if (report.identical) {
    std::printf("identical: %llu trial(s), root %s (%llu node reads)\n",
                static_cast<unsigned long long>(a.trial_count()), a.root_hash().hex().c_str(),
                static_cast<unsigned long long>(report.nodes_read_a + report.nodes_read_b));
    return 0;
  }
  if (!report.meta_divergence.empty()) {
    std::printf("DIFFER before any tree descent: %s\n", report.meta_divergence.c_str());
    return 1;
  }
  std::printf("DIFFER at %zu trial(s)%s:", report.divergent_trials.size(),
              report.truncated ? " (truncated)" : "");
  for (const std::uint64_t trial : report.divergent_trials) {
    std::printf(" %llu", static_cast<unsigned long long>(trial));
  }
  std::printf("\n");
  if (report.first) {
    std::printf("first divergence: trial %llu, %s\n",
                static_cast<unsigned long long>(report.first->trial), report.first->what.c_str());
  }
  std::printf("node reads: %llu (%s) + %llu (%s)\n",
              static_cast<unsigned long long>(report.nodes_read_a), path_a.c_str(),
              static_cast<unsigned long long>(report.nodes_read_b), path_b.c_str());
  return 1;
}

int run_ls(const std::string& path) {
  const fle::StoreReader reader = fle::StoreReader::open_file(path);
  std::printf("%s: %llu trial(s), depth %d, root %s\n", path.c_str(),
              static_cast<unsigned long long>(reader.trial_count()), reader.depth(),
              reader.root_hash().hex().c_str());
  std::printf("blobs: %llu unique, %llu stored byte(s) for %llu logical byte(s)\n",
              static_cast<unsigned long long>(reader.unique_blobs()),
              static_cast<unsigned long long>(reader.stored_blob_bytes()),
              static_cast<unsigned long long>(reader.logical_blob_bytes()));
  for (const fle::StoreScenario& scenario : reader.scenarios()) {
    std::printf("  trials [%llu, %llu): %s\n", static_cast<unsigned long long>(scenario.base),
                static_cast<unsigned long long>(scenario.base + scenario.trials),
                scenario.spec.c_str());
  }
  return 0;
}

int run_cat(const std::string& path, std::uint64_t trial) {
  const fle::StoreReader reader = fle::StoreReader::open_file(path);
  if (trial >= reader.trial_count()) {
    std::fprintf(stderr, "fle_store: trial %llu is out of range [0, %llu)\n",
                 static_cast<unsigned long long>(trial),
                 static_cast<unsigned long long>(reader.trial_count()));
    return 2;
  }
  const fle::ExecutionTranscript transcript = reader.read_transcript(trial);
  std::printf("trial %llu: key %s, %llu event(s)\n", static_cast<unsigned long long>(trial),
              transcript.content_key().hex().c_str(),
              static_cast<unsigned long long>(transcript.size()));
  const auto events = transcript.events();
  for (std::size_t e = 0; e < events.size(); ++e) {
    std::printf("  [%4zu] %s\n", e, fle::format_event(events[e]).c_str());
  }
  return 0;
}

/// Rebuilds the store with trial N's transcript perturbed (last event's
/// payload bumped), all hashes recomputed — a VALID store whose content
/// differs in exactly one leaf, so `diff` must localize it by descent.
int run_tamper(const std::string& in_path, const std::string& out_path, std::uint64_t trial) {
  const fle::StoreReader reader = fle::StoreReader::open_file(in_path);
  if (trial >= reader.trial_count()) {
    std::fprintf(stderr, "fle_store: trial %llu is out of range [0, %llu)\n",
                 static_cast<unsigned long long>(trial),
                 static_cast<unsigned long long>(reader.trial_count()));
    return 2;
  }
  fle::StoreWriter writer;
  for (const fle::StoreScenario& scenario : reader.scenarios()) {
    std::vector<fle::ExecutionTranscript> transcripts;
    transcripts.reserve(static_cast<std::size_t>(scenario.trials));
    for (std::uint64_t t = scenario.base; t < scenario.base + scenario.trials; ++t) {
      transcripts.push_back(reader.read_transcript(t));
      if (t != trial) continue;
      const std::vector<fle::TranscriptEvent> events = transcripts.back().events();
      fle::ExecutionTranscript& tampered = transcripts.back();
      tampered.clear();
      for (std::size_t e = 0; e < events.size(); ++e) {
        const fle::TranscriptEvent& event = events[e];
        const std::uint64_t c = e + 1 == events.size() ? event.c + 1 : event.c;
        tampered.record(event.kind, event.a, event.b, c);
      }
      if (events.empty()) tampered.decision(0, false, 0);
    }
    writer.add_scenario(scenario.spec, transcripts);
  }
  writer.write_file(out_path);
  std::printf("%s: trial %llu tampered, root %s\n", out_path.c_str(),
              static_cast<unsigned long long>(trial),
              fle::StoreReader::open_file(out_path).root_hash().hex().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  std::string out_path;
  std::vector<std::string> inputs;
  std::uint64_t trial = 0;
  bool trial_set = false;
  std::size_t max_divergent = 16;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--trial") {
      trial = fle::cli::parse_u64(argv[0], "--trial", next());
      trial_set = true;
    } else if (arg == "--max-divergent") {
      max_divergent =
          fle::cli::parse_int<std::size_t>(argv[0], "--max-divergent", next(), 1, 1u << 20);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }

  try {
    if (command == "build") {
      if (out_path.empty() || inputs.size() != 1) usage(argv[0]);
      return run_build(argv[0], out_path, inputs[0]);
    }
    if (command == "diff") {
      if (inputs.size() != 2) usage(argv[0]);
      return run_diff(inputs[0], inputs[1], max_divergent);
    }
    if (command == "ls") {
      if (inputs.size() != 1) usage(argv[0]);
      return run_ls(inputs[0]);
    }
    if (command == "cat") {
      if (inputs.size() != 1 || !trial_set) usage(argv[0]);
      return run_cat(inputs[0], trial);
    }
    if (command == "tamper") {
      if (inputs.size() != 1 || out_path.empty() || !trial_set) usage(argv[0]);
      return run_tamper(inputs[0], out_path, trial);
    }
    usage(argv[0]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fle_store: %s\n", error.what());
    return 2;
  }
}
