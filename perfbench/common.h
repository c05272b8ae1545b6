#pragma once
// Shared pieces of the benchmark driver: clocks, sample summaries, the
// correctness digest, the span recorder and the metric table it prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "api/sweep.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point start, Clock::time_point end);
/// Process user+sys CPU seconds (all threads).
double process_cpu_seconds();
/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Confines the calling thread (and the threads it starts afterwards) to
/// one CPU at a time, taking the CPUs it was allowed in turn; restores the
/// original set when told to or when destroyed.  A timed run rotates its
/// repetitions this way so that it does not inherit one core's neighbour on
/// a shared host.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves to the next allowed CPU.
  void next();
  /// Back to every allowed CPU.
  void restore();

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Median and quartiles of a sample, with the same interpolation as
/// Python's statistics.quantiles(values, n=4) (its default "exclusive"
/// method), so the driver's own spread test reads the same numbers.  The
/// deciles are nearest-rank: sorted values[n/10] and values[n-1-n/10], so
/// the high decile of a rate is read at the repetition where the low decile
/// of its time is.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double low_decile = 0.0;
  double high_decile = 0.0;
  std::size_t count = 0;
};
Summary summarize(std::vector<double> values);

/// The paper fields of one scenario result — spec line, outcome counts,
/// message and sync-gap totals and maxima, rounds — folded into 64 bits.
/// Report bytes are deliberately left out, so a shard-row format change
/// does not read as a wrong answer.
std::uint64_t scenario_digest(const std::string& spec_line, const fle::ScenarioResult& result);

/// A generated workload after parse_spec: the sweep, and per scenario its
/// line and ledger family.
struct ParsedWorkload {
  std::string name;
  std::vector<WorkloadLine> lines;
  fle::SweepSpec sweep;
};
ParsedWorkload parse_workload(const std::string& name, std::uint64_t seed, int workers);

/// The recorded reference digests (golden.txt) for a workload at the
/// default seed; empty for any other seed, or when the file lacks them —
/// the caller then checks against run_scalar_oracle instead.
std::vector<std::uint64_t> golden_digests(const std::string& golden_path,
                                          const ParsedWorkload& workload, std::uint64_t seed);
/// Runs the workload with every scenario pinned to the scalar engines.
std::vector<fle::ScenarioResult> run_scalar_oracle(const ParsedWorkload& workload);
std::vector<std::uint64_t> digests_of(const ParsedWorkload& workload,
                                      const std::vector<fle::ScenarioResult>& results);
/// Scenarios whose digest differs from the reference.
std::size_t count_mismatches(const std::vector<std::uint64_t>& got,
                             const std::vector<std::uint64_t>& want);

/// In-memory spans around calls into the library's layers.  Kept in
/// memory while the benchmark runs and written out once at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
  };

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name);
  /// Closes span `index`; returns its duration in seconds.
  double close(int index);
  /// Times `fn()` inside a span and returns the span's duration.
  template <typename Fn>
  double time(std::string name, Fn&& fn) {
    const int span = open(std::move(name));
    fn();
    return close(span);
  }

  /// Duration of the most recent closed span called `name`.
  [[nodiscard]] double last(const std::string& name) const;

  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One reported metric: value, unit, the in-run sample summary behind it,
/// and (per-layer metrics) the end-to-end metric and workload it should
/// move.
struct Metric {
  double value = 0.0;
  std::string unit;
  Summary samples;
  std::string moves;
  std::string on;
};

/// Prints the driver's result object as one JSON line on stdout.
void print_result(const std::map<std::string, Metric>& metrics, bool correct,
                  std::size_t attempted, std::size_t failed,
                  const std::vector<std::string>& notes);

}  // namespace perfbench
