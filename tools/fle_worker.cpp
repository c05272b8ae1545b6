// fle_worker — one member of a fle_sweep fleet (DESIGN.md §8).
//
//   fle_worker --connect 127.0.0.1:41201 [--threads T] [--label NAME]
//              [--fault 'kill@2,hang@3:2000']
//
// Connects to the driver, answers assigned trial windows with shard rows,
// and exits on drain.  --fault schedules deterministic misbehaviour by
// assignment ordinal (src/fabric/fault.h) for chaos testing.  Exit codes
// are run_worker's: 0 clean drain, 3 injected kill, 2 rejected, 1
// connection/protocol loss.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>

#include "cli_parse.h"
#include "fabric/worker.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect HOST:PORT [--threads T] [--label NAME]\n"
               "          [--fault PLAN] [--read-timeout-ms N]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  fle::fabric::WorkerOptions options;
  options.exit_on_kill = true;  // a killed process, not a returned function
  bool connected_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--connect") {
      const std::string target = next();
      const std::size_t colon = target.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "%s: --connect: '%s' is not of the form HOST:PORT\n", argv[0],
                     target.c_str());
        return 2;
      }
      options.host = target.substr(0, colon);
      options.port = fle::cli::parse_int<std::uint16_t>(
          argv[0], "--connect", std::string_view(target).substr(colon + 1), 1, 65535);
      connected_set = true;
    } else if (arg == "--threads") {
      options.threads = fle::cli::parse_int<int>(argv[0], "--threads", next(), 0, 4096);
    } else if (arg == "--label") {
      options.label = next();
    } else if (arg == "--fault") {
      try {
        options.faults = fle::fabric::FaultPlan::parse(next());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "fle_worker: %s\n", error.what());
        return 2;
      }
    } else if (arg == "--read-timeout-ms") {
      options.read_timeout =
          std::chrono::milliseconds(fle::cli::parse_ms(argv[0], "--read-timeout-ms", next()));
    } else {
      usage(argv[0]);
    }
  }
  if (!connected_set) usage(argv[0]);
  return fle::fabric::run_worker(options);
}
