#pragma once
// The benchmark driver's run modes (driver.cpp parses the command line).

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int workers = 2;           ///< executor workers for in-process sweeps
  std::string golden;        ///< golden.txt path (reference digests at the default seed)
  std::string trace_out;     ///< where the ledger writes its spans (empty = nowhere)
};

/// The traced run: per-layer metrics for every layer of every workload
/// (ledger.cpp).  Prints the result line; returns the exit code.
int run_ledger(const Options& options);

}  // namespace perfbench
