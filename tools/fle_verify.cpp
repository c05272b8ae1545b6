// fle_verify — the conformance gate (DESIGN.md §5/§6).
//
//   fle_verify                         full suite at default budgets; each
//                                      section's user/system CPU and wall
//                                      time go to stderr
//   fle_verify --quick                 seconds-scale budgets (ctest -L verify)
//   fle_verify --trials 10000 --exact 10000 --fuzz 200
//                                      CI budgets
//   fle_verify --repro 'topology=ring protocol=alead-uni n=8 trials=4 seed=9'
//                                      replay one shrunk fuzz failure
//   fle_verify --list                  print the registered protocols/deviations
//   fle_verify --dump-transcript '<spec line>'
//                                      record the spec's trials and pretty-print
//                                      every event (FLST stores of a sweep's
//                                      transcripts: fle_sweep, then fle_store)
//
// Exit code 0 iff every check passed.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "api/registry.h"
#include "cli_parse.h"
#include "sim/digest.h"
#include "verify/fuzzer.h"
#include "verify/suite.h"

namespace {

void print_report(const fle::verify::CheckReport& report) {
  for (const auto& r : report.results) {
    std::printf("[%s] %-26s %s\n          %s\n", r.passed ? "PASS" : "FAIL",
                r.name.c_str(), r.subject.c_str(), r.detail.c_str());
  }
  std::printf("%zu checks, %zu failed\n", report.results.size(), report.failures());
}

/// The repro's execution fingerprint: the SHA-256 over every trial's
/// transcript content key in trial order, so the printed line pins the
/// *executions* the repro spec produces, not just its parameters — two
/// builds that print the same key replayed the same schedules, turn orders
/// and decisions.
void print_repro_key(const fle::ScenarioSpec& spec) {
  fle::ScenarioSpec recorded = spec;
  recorded.record_transcripts = true;
  recorded.threads = 1;
  try {
    const fle::ScenarioResult result = fle::run_scenario(recorded);
    fle::Sha256 keys;
    std::uint64_t events = 0;
    for (const fle::ExecutionTranscript& t : result.per_trial_transcript) {
      keys.update(t.content_key().bytes);
      events += t.size();
    }
    std::printf("transcript key: %s (%zu trials, %llu events)\n", keys.finish().hex().c_str(),
                result.per_trial_transcript.size(), static_cast<unsigned long long>(events));
  } catch (const std::exception& error) {
    // A spec the API rejects (or a threaded spec, which has no
    // deterministic transcript) still replays its invariants below.
    std::printf("transcript key: unavailable (%s)\n", error.what());
  }
}

int run_repro(const std::string& line) {
  // Repro lines may name the campaign's user-registered entries.
  fle::verify::register_fuzz_user_entries();
  const fle::ScenarioSpec spec = fle::verify::parse_spec(line);
  std::printf("replaying: %s\n", fle::verify::format_spec(spec).c_str());
  print_repro_key(spec);
  const auto failure = fle::verify::run_spec_invariants(spec);
  if (failure) {
    std::printf("[FAIL] %s\n", failure->c_str());
    return 1;
  }
  std::printf("[PASS] invariants hold\n");
  return 0;
}

int list_registry() {
  fle::register_builtin_scenarios();
  std::printf("protocols:\n");
  for (const auto& name : fle::ProtocolRegistry::instance().names()) {
    std::printf("  %-22s %s\n", name.c_str(),
                fle::ProtocolRegistry::instance().at(name).summary.c_str());
  }
  std::printf("deviations:\n");
  for (const auto& name : fle::DeviationRegistry::instance().names()) {
    std::printf("  %-22s %s\n", name.c_str(),
                fle::DeviationRegistry::instance().at(name).summary.c_str());
  }
  return 0;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--trials N] [--exact N] [--fuzz N] [--seed S]\n"
               "          [--threads T] [--no-statistical] [--no-differential]\n"
               "          [--no-fuzz] [--repro '<spec line>'] [--list]\n"
               "          [--dump-transcript '<spec line>']\n",
               argv0);
  std::exit(2);
}

/// Records the spec's trials (transcripts forced on, one worker so the
/// printed order is the execution order) and pretty-prints every event.
int run_dump_transcript(const std::string& line) {
  fle::verify::register_fuzz_user_entries();
  fle::ScenarioSpec spec = fle::verify::parse_spec(line);
  spec.record_transcripts = true;
  spec.threads = 1;
  const fle::ScenarioResult result = fle::run_scenario(spec);
  std::printf("spec: %s\n", fle::verify::format_spec(spec).c_str());
  std::printf("%zu trial(s), first global index %zu\n", result.per_trial_transcript.size(),
              result.trial_offset);
  for (std::size_t t = 0; t < result.per_trial_transcript.size(); ++t) {
    const fle::ExecutionTranscript& transcript = result.per_trial_transcript[t];
    std::printf("trial %zu: key %s, %llu event(s)\n", result.trial_offset + t,
                transcript.content_key().hex().c_str(),
                static_cast<unsigned long long>(transcript.size()));
    const auto events = transcript.events();
    for (std::size_t e = 0; e < events.size(); ++e) {
      std::printf("  [%4zu] %s\n", e, fle::format_event(events[e]).c_str());
    }
  }
  return 0;
}

/// Runs one conformance section and prints its user and system CPU
/// (getrusage over the whole process) and wall time to stderr, so stdout
/// stays the report alone.
template <typename Section>
fle::verify::CheckReport timed_section(const char* name, Section&& section) {
  const auto cpu = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage;
  };
  const auto seconds = [](const timeval& from, const timeval& to) {
    return static_cast<double>(to.tv_sec - from.tv_sec) +
           1e-6 * static_cast<double>(to.tv_usec - from.tv_usec);
  };
  const rusage before = cpu();
  const auto start = std::chrono::steady_clock::now();
  fle::verify::CheckReport report = section();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
  const rusage after = cpu();
  std::fprintf(stderr, "fle_verify: %s section: %.1f s user, %.1f s system, %.1f s wall\n",
               name, seconds(before.ru_utime, after.ru_utime),
               seconds(before.ru_stime, after.ru_stime), wall.count());
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  fle::verify::SuiteOptions options;
  std::string repro;
  std::string dump_spec;
  bool quick = false;
  bool run_statistical = true;
  bool run_differential = true;
  bool run_fuzz = true;
  // Explicit budget flags always win over --quick, whatever the flag order.
  bool trials_set = false;
  bool exact_set = false;
  bool fuzz_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--trials") {
      options.trials = fle::cli::parse_int<std::size_t>(argv[0], "--trials", next(), 1, 1u << 30);
      trials_set = true;
    } else if (arg == "--exact") {
      options.exact_trials =
          fle::cli::parse_int<std::size_t>(argv[0], "--exact", next(), 1, 1u << 30);
      exact_set = true;
    } else if (arg == "--fuzz") {
      options.fuzz_specs =
          fle::cli::parse_int<std::size_t>(argv[0], "--fuzz", next(), 0, 1u << 30);
      fuzz_set = true;
    } else if (arg == "--seed") {
      options.seed = fle::cli::parse_u64(argv[0], "--seed", next());
    } else if (arg == "--threads") {
      options.threads = fle::cli::parse_int<int>(argv[0], "--threads", next(), 0, 4096);
    } else if (arg == "--no-statistical") {
      run_statistical = false;
    } else if (arg == "--no-differential") {
      run_differential = false;
    } else if (arg == "--no-fuzz") {
      run_fuzz = false;
    } else if (arg == "--repro") {
      repro = next();
    } else if (arg == "--dump-transcript") {
      dump_spec = next();
    } else if (arg == "--list") {
      return list_registry();
    } else {
      usage(argv[0]);
    }
  }

  try {
    if (!repro.empty()) return run_repro(repro);
    if (!dump_spec.empty()) return run_dump_transcript(dump_spec);
    if (quick) {
      const auto budgets = fle::verify::quick_suite_options();
      if (!trials_set) options.trials = budgets.trials;
      if (!exact_set) options.exact_trials = budgets.exact_trials;
      if (!fuzz_set) options.fuzz_specs = budgets.fuzz_specs;
    }
    fle::verify::CheckReport report;
    if (run_statistical) {
      report.merge(timed_section("statistical",
                                 [&] { return fle::verify::run_statistical_checks(options); }));
    }
    if (run_differential) {
      report.merge(timed_section("differential",
                                 [&] { return fle::verify::run_differential_checks(options); }));
    }
    if (run_fuzz) {
      report.merge(timed_section("fuzz", [&] {
        fle::verify::FuzzOptions fuzz;
        fuzz.seed = options.seed;
        fuzz.specs = options.fuzz_specs;
        return fle::verify::run_fuzz_campaign(fuzz).as_report();
      }));
    }
    print_report(report);
    return report.all_passed() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fle_verify: %s\n", error.what());
    return 2;
  }
}
