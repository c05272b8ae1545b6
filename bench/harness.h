#pragma once
// Shared bench harness: the pretty-table helpers every bench prints with,
// plus machine-readable output — each bench writes BENCH_<id>.json with one
// JSON row per recorded scenario run (spec fields + ScenarioResult
// aggregates), so sweeps can be consumed by tooling without scraping
// tables.
//
// Sweeps: run_sweep() drives a whole table as ONE SweepSpec — every
// scenario's trial chunks share the executor's work queue (api/sweep.h), so
// a table of many small and few large scenarios no longer strands cores.
//
// A table binary takes no arguments and always runs the whole table:
// splitting scenarios across processes or hosts is the fabric's job
// (fle_sweep with fle_worker processes).
//
//   int main(int argc, char** argv) {
//     bench::Harness h("e01", "...", "...", argc, argv);
//     ...rows...
//   }

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario.h"
#include "api/sweep.h"

namespace fle::bench {

/// Peak resident set size in KiB (0 where the platform has no getrusage).
std::uint64_t peak_rss_kib();

/// Minimal JSON object builder (keys ordered as set; strings escaped).
class JsonObject {
 public:
  JsonObject& set(const std::string& key, const std::string& value);
  JsonObject& set(const std::string& key, const char* value);
  JsonObject& set(const std::string& key, double value);
  JsonObject& set(const std::string& key, std::uint64_t value);
  JsonObject& set(const std::string& key, int value);
  JsonObject& set(const std::string& key, bool value);

  [[nodiscard]] std::string str() const;

 private:
  JsonObject& raw(const std::string& key, std::string rendered);
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One bench run: banner + table helpers + the JSON sink.  The destructor
/// writes BENCH_<id>.json into the working directory.
class Harness {
 public:
  /// Any command-line argument prints a usage line to stderr and exits 2.
  Harness(std::string file_id, std::string title, std::string claim, int argc, char** argv);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void note(const std::string& text);
  void row_header(const std::string& cols);

  /// Runs a whole table as one sweep (api/sweep.h): every scenario shares
  /// the executor's work queue.  Records one row per scenario (labels[i]
  /// where provided) and returns the results in sweep order.  Under work
  /// stealing only the sweep as a whole is measured, so every row carries
  /// the sweep's wall time (sweep_wall_seconds) and no per-row rate.
  std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep,
                                        const std::vector<std::string>& labels = {});

  /// Records a hand-built row (benches whose rows are not scenario runs).
  void add_row(JsonObject row);

  /// Attaches an extra derived column to the most recent row.
  void annotate(const std::string& key, double value);

  /// Same, addressing a row by record order (run_sweep rows and add_row
  /// calls, zero-based) — what sweep-driven benches use to annotate
  /// individual rows of one run_sweep table.
  void annotate_row(std::size_t index, const std::string& key, double value);

 private:
  std::string file_id_;
  std::string title_;
  std::string claim_;
  std::vector<JsonObject> rows_;
};

}  // namespace fle::bench
