// fle_sweep — the fabric driver (DESIGN.md §8).
//
//   fle_sweep --spec-file sweep.txt --workers 4          serve a worker fleet
//   fle_sweep --spec-file sweep.txt --local              same sweep in-process
//
// The spec file is one verify/fuzzer.h spec line per non-empty line ('#'
// comments allowed) — the same lines fle_verify --repro replays.  Both
// modes write the canonical JSONL report (one shard row per scenario,
// wall-clock zeroed), so a fabric run is validated against a monolithic
// one with `cmp`:
//
//   fle_sweep --spec-file sweep.txt --local --out mono.jsonl
//   fle_sweep --spec-file sweep.txt --port-file port.txt --out fabric.jsonl &
//   for i in 1 2 3 4; do fle_worker --connect 127.0.0.1:$(cat port.txt) & done
//   wait %1 && cmp mono.jsonl fabric.jsonl
//
// The fabric's trial windows are the one way a sweep is split across
// processes; --local runs it whole.
//
// --engine scalar pins every scenario to the scalar oracle engines;
// --engine auto (each line's default) lets the specializer pick the
// closed-form layer or the lane engine where a spec qualifies
// (api/specialize.h).  The report is the same either way.
//
// Exit code 0 on success; 1 when the sweep fails (a window exhausted its
// retries, the whole fleet died, or a closed-form audit disagreed with the
// oracle); 2 on usage errors and on an unreadable or malformed spec file
// (the error names the file and line).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "api/sweep.h"
#include "cli_parse.h"
#include "fabric/driver.h"
#include "verify/fuzzer.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --spec-file FILE [--local] [--out FILE]\n"
               "          [--port N] [--port-file FILE] [--workers N] [--window N]\n"
               "          [--deadline-ms N] [--retries N] [--heartbeat-ms N]\n"
               "          [--grace-ms N] [--threads T]\n"
               "          [--engine auto|scalar]\n",
               argv0);
  std::exit(2);
}

/// The spec file as a sweep; an error names the file and the 1-based line.
fle::SweepSpec load_sweep(const std::string& path, int threads) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read spec file '" + path + "'");
  }
  fle::SweepSpec sweep;
  sweep.threads = threads;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    try {
      sweep.add(fle::verify::parse_spec(line));
    } catch (const std::exception& error) {
      throw std::runtime_error(path + ":" + std::to_string(line_number) + ": " +
                               error.what());
    }
  }
  if (sweep.scenarios.empty()) {
    throw std::runtime_error("spec file '" + path + "' holds no scenarios");
  }
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path;
  std::string port_file;
  bool local = false;
  int threads = 0;
  std::optional<fle::EngineKind> engine;
  fle::fabric::FabricOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--spec-file") {
      spec_path = next();
    } else if (arg == "--local") {
      local = true;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--port") {
      options.port = fle::cli::parse_int<std::uint16_t>(argv[0], "--port", next(), 0, 65535);
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--workers") {
      options.planned_workers =
          fle::cli::parse_int<std::size_t>(argv[0], "--workers", next(), 1, 1u << 20);
    } else if (arg == "--window") {
      options.window_trials =
          fle::cli::parse_int<std::size_t>(argv[0], "--window", next(), 0, 1u << 30);
    } else if (arg == "--deadline-ms") {
      options.window_deadline =
          std::chrono::milliseconds(fle::cli::parse_ms(argv[0], "--deadline-ms", next()));
    } else if (arg == "--retries") {
      options.max_attempts = fle::cli::parse_int<int>(argv[0], "--retries", next(), 1, 1000);
    } else if (arg == "--heartbeat-ms") {
      options.heartbeat_interval =
          std::chrono::milliseconds(fle::cli::parse_ms(argv[0], "--heartbeat-ms", next()));
    } else if (arg == "--grace-ms") {
      options.worker_grace =
          std::chrono::milliseconds(fle::cli::parse_ms(argv[0], "--grace-ms", next()));
    } else if (arg == "--threads") {
      threads = fle::cli::parse_int<int>(argv[0], "--threads", next(), 0, 4096);
    } else if (arg == "--engine") {
      static constexpr std::string_view kEngines[] = {"auto", "scalar"};
      engine = *fle::parse_engine(
          std::string(fle::cli::parse_choice(argv[0], "--engine", next(), kEngines)));
    } else {
      usage(argv[0]);
    }
  }
  if (spec_path.empty()) usage(argv[0]);

  fle::SweepSpec sweep;
  try {
    sweep = load_sweep(spec_path, threads);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fle_sweep: %s\n", error.what());
    return 2;
  }
  try {
    // Engine overrides apply to the whole sweep AFTER the report snapshot:
    // the canonical report echoes the workload as the spec file wrote it,
    // never the engine that happened to run it, so the CI's --engine scalar
    // and --engine auto runs cmp byte-identical.
    const fle::SweepSpec report_sweep = sweep;
    for (fle::ScenarioSpec& spec : sweep.scenarios) {
      if (engine) spec.engine = *engine;
    }
    std::vector<fle::ScenarioResult> results;
    if (local) {
      results = fle::run_sweep(sweep);
    } else {
      fle::fabric::RemoteExecutor executor(options);
      std::fprintf(stderr, "fle_sweep: serving %zu scenario(s) on %s:%u\n",
                   sweep.scenarios.size(), options.bind_address.c_str(),
                   static_cast<unsigned>(executor.port()));
      if (!port_file.empty()) {
        std::ofstream out(port_file);
        if (!out) throw std::runtime_error("cannot write port file '" + port_file + "'");
        out << executor.port() << "\n";
      }
      results = executor.run_sweep(sweep);
    }
    const std::string report = fle::fabric::canonical_report(report_sweep, results);
    if (out_path.empty()) {
      std::fputs(report.c_str(), stdout);
    } else {
      std::ofstream out(out_path);
      if (!out) throw std::runtime_error("cannot write '" + out_path + "'");
      out << report;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fle_sweep: %s\n", error.what());
    return 1;
  }
}
