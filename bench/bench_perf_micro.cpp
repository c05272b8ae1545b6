// Micro-benchmarks (google-benchmark): engine throughput, PRF evaluation,
// full-protocol execution latency, engine construction-vs-reuse, and
// end-to-end run_scenario throughput.  These are sanity-of-substrate
// numbers, not paper claims.
//
// The *_ConstructEach / *_Reused pairs measure the zero-allocation
// execution model: ConstructEach builds a fresh engine and a fresh
// StrategyArena per trial; Reused rearms one engine with reset() and
// rebuilds strategies in one rewound arena.  The
// allocations_per_trial counter (counting operator new shim below) is the
// steady-state allocation count of the measured loop — 0 on the reused
// ring path.

#include <benchmark/benchmark.h>

#include "core/counting_new.inc"

#include <memory>
#include <span>
#include <vector>

#include "api/scenario.h"
#include "api/sweep.h"
#include "attacks/coalition.h"
#include "core/random_function.h"
#include "core/rng.h"
#include "core/shamir.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "protocols/phase_async_lead.h"
#include "protocols/shamir_lead.h"
#include "protocols/sync_lead.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/graph_engine.h"
#include "sim/lane_engine.h"
#include "sim/sync_engine.h"

namespace {

using namespace fle;

std::atomic<std::uint64_t>& g_allocations = counting_new::allocations;

/// Attaches allocations/iteration of the timed loop to the benchmark.
class AllocationScope {
 public:
  explicit AllocationScope(benchmark::State& state,
                           const char* counter = "allocations_per_trial")
      : state_(state),
        counter_(counter),
        start_(g_allocations.load(std::memory_order_relaxed)) {}
  ~AllocationScope() {
    const auto total = g_allocations.load(std::memory_order_relaxed) - start_;
    state_.counters[counter_] = benchmark::Counter(
        static_cast<double>(total) / static_cast<double>(state_.iterations()));
  }

 private:
  benchmark::State& state_;
  const char* counter_;
  std::uint64_t start_;
};

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_XoshiroBelow(benchmark::State& state) {
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000));
  }
}
BENCHMARK(BM_XoshiroBelow);

void BM_RandomFunctionEvaluate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int l = RandomFunction::default_l(n);
  RandomFunction f(1, n, RandomFunction::default_m(n), l);
  Xoshiro256 rng(3);
  std::vector<Value> d(static_cast<std::size_t>(n));
  std::vector<Value> v(static_cast<std::size_t>(n - l));
  for (auto& x : d) x = rng.below(static_cast<std::uint64_t>(n));
  for (auto& x : v) x = rng.below(RandomFunction::default_m(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.evaluate(d, v));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.size() + v.size()));
}
BENCHMARK(BM_RandomFunctionEvaluate)->Arg(64)->Arg(256)->Arg(1024);

// ---- preimage search: serial evaluate() loop vs first_preimage() ---------
//
// e07's n = 529 shape: 7 free data inputs mid-vector, searched with radix n
// under a 96n cap.  The target n is unreachable, so both rows scan all 96n
// attempts (items/sec = attempts).  The release-perf job gates the kernel
// at >= 2.5x the serial loop.

struct PreimageSearch {
  explicit PreimageSearch(int size)
      : n(static_cast<std::uint64_t>(size)),
        f(1, size, RandomFunction::default_m(size), RandomFunction::default_l(size)),
        d(n),
        v(static_cast<std::size_t>(f.validation_inputs())) {
    Xoshiro256 rng(5);
    for (auto& x : d) x = rng.below(n);
    for (auto& x : v) x = rng.below(f.m());
    for (std::size_t i = 7; i-- > 0;) free_inputs.push_back(n / 2 + i);
  }

  std::uint64_t n;  ///< also the radix; as a target, unreachable
  RandomFunction f;
  std::vector<Value> d;
  std::vector<Value> v;
  std::vector<std::size_t> free_inputs;
  std::uint64_t attempts() const { return 96 * n; }
};

void BM_PhasePreimageSearchSerial(benchmark::State& state) {
  PreimageSearch search(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (std::uint64_t attempt = 0; attempt < search.attempts(); ++attempt) {
      std::uint64_t a = attempt;
      for (const std::size_t j : search.free_inputs) {
        search.d[j] = a % search.n;
        a /= search.n;
      }
      if (search.f.evaluate(search.d, search.v) == search.n) break;
    }
    benchmark::DoNotOptimize(search.d.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(search.attempts()));
}
BENCHMARK(BM_PhasePreimageSearchSerial)->Arg(529);

void BM_PhasePreimageSearch(benchmark::State& state) {
  const PreimageSearch search(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.f.first_preimage(search.d, search.v, search.free_inputs,
                                                     search.n, search.attempts(), search.n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(search.attempts()));
}
BENCHMARK(BM_PhasePreimageSearch)->Arg(529);

// ---- ring engine: full honest executions (one reused engine and arena) --

/// An honest ring workspace: one engine and one arena, rearmed per trial
/// with reset() and rewind() — the executor's steady-state cadence.
class HonestRing {
 public:
  HonestRing(const RingProtocol& protocol, int n)
      : protocol_(protocol), engine_(n, 1, options(protocol, n)) {}

  Outcome trial(std::uint64_t seed) {
    engine_.reset(seed);
    arena_.rewind();
    profile_.clear();
    for (ProcessorId p = 0; p < engine_.n(); ++p) {
      profile_.push_back(protocol_.emplace_strategy(arena_, p, engine_.n()));
    }
    return engine_.run(std::span<RingStrategy* const>(profile_));
  }

  static EngineOptions options(const RingProtocol& protocol, int n) {
    EngineOptions options;
    options.step_limit = protocol.honest_message_bound(n) * 2 + 1024;
    return options;
  }

 private:
  const RingProtocol& protocol_;
  RingEngine engine_;
  StrategyArena arena_;
  std::vector<RingStrategy*> profile_;
};

void BM_EngineBasicLead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BasicLeadProtocol protocol;
  HonestRing ring(protocol, n);
  std::uint64_t seed = 0;
  (void)ring.trial(++seed);  // warm the workspace
  AllocationScope allocations(state);
  for (auto _ : state) {
    const Outcome o = ring.trial(++seed);
    benchmark::DoNotOptimize(o);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_EngineBasicLead)->Arg(32)->Arg(128)->Arg(512);

void BM_EngineALeadUni(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ALeadUniProtocol protocol;
  HonestRing ring(protocol, n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.trial(++seed));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_EngineALeadUni)->Arg(32)->Arg(128)->Arg(512);

void BM_EnginePhaseAsyncLead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PhaseAsyncLeadProtocol protocol(n, 0x5eedull);
  HonestRing ring(protocol, n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.trial(++seed));
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n);
}
BENCHMARK(BM_EnginePhaseAsyncLead)->Arg(32)->Arg(128)->Arg(512);

// ---- construction vs reuse: the zero-allocation execution model ----------

/// Fresh engine and fresh arena per trial.
void BM_RingTrialConstructEach(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BasicLeadProtocol protocol;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    RingEngine engine(n, ++seed, HonestRing::options(protocol, n));
    StrategyArena arena;
    std::vector<RingStrategy*> profile;
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<RingStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingTrialConstructEach)->Arg(32)->Arg(128);

/// One engine reset per trial, strategies in a rewound arena.
void BM_RingTrialReused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BasicLeadProtocol protocol;
  HonestRing ring(protocol, n);
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.trial(++seed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingTrialReused)->Arg(32)->Arg(128);

void BM_GraphTrialConstructEach(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ShamirLeadProtocol protocol(n);
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    GraphEngineOptions options;
    options.step_limit = protocol.honest_message_bound(n) * 2 + 4096;
    GraphEngine engine(n, ++seed, std::move(options));
    StrategyArena arena;
    std::vector<GraphStrategy*> profile;
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<GraphStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GraphTrialConstructEach)->Arg(8)->Arg(16);

void BM_GraphTrialReused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ShamirLeadProtocol protocol(n);
  GraphEngineOptions options;
  options.step_limit = protocol.honest_message_bound(n) * 2 + 4096;
  GraphEngine engine(n, 1, std::move(options));
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    engine.reset(++seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<GraphStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GraphTrialReused)->Arg(8)->Arg(16);

// ---- Shamir reconstruction: generic oracle vs the (n, t) weight table -----
//
// One honest sharing at Shamir-LEAD's default threshold t = n/2 + 1,
// reconstructed with verification over all n points (items/sec = calls).
// The release-perf job gates the table row at >= 10x the oracle at n = 16.

std::vector<Share> honest_sharing(int n) {
  Xoshiro256 rng(static_cast<std::uint64_t>(n));
  return shamir_share(Fp::random(rng), n / 2 + 1, n, rng);
}

void BM_ShamirReconstructChecked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Share> shares = honest_sharing(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_reconstruct_checked(shares, n / 2 + 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShamirReconstructChecked)->Arg(8)->Arg(16);

void BM_ShamirWeightsReconstructChecked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ShamirWeights weights(n, n / 2 + 1);
  std::vector<Fp> ys;
  for (const Share& s : honest_sharing(n)) ys.push_back(s.y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(weights.reconstruct_checked(ys));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShamirWeightsReconstructChecked)->Arg(8)->Arg(16);

void BM_SyncTrialConstructEach(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SyncBroadcastLeadProtocol protocol;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    SyncEngineOptions options;
    options.round_limit = protocol.round_bound(n);
    SyncEngine engine(n, ++seed, options);
    StrategyArena arena;
    std::vector<SyncStrategy*> profile;
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<SyncStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyncTrialConstructEach)->Arg(16)->Arg(64);

void BM_SyncTrialReused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SyncBroadcastLeadProtocol protocol;
  SyncEngineOptions options;
  options.round_limit = protocol.round_bound(n);
  SyncEngine engine(n, 1, options);
  StrategyArena arena;
  std::vector<SyncStrategy*> profile;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    engine.reset(++seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<SyncStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyncTrialReused)->Arg(16)->Arg(64);

// ---- batched lane engine (DESIGN.md §10): window throughput --------------

// The general lane path: every trial runs the burst loop over the
// ring-buffer inbox column (closed forms live above the engine, in the
// scenario layer), so this row is the vectorized-general-path claim the
// release-perf gate holds against the scalar run_scenario row.
void BM_LaneEngineRingGeneral(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LaneEngine engine(n, LaneKernelId::kBasicLead);
  std::vector<std::uint64_t> seeds(256);
  std::vector<TrialStats> results(seeds.size());
  std::uint64_t base = 0;
  AllocationScope allocations(state, "allocations_per_window");
  for (auto _ : state) {
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = ++base;
    engine.run_window(seeds, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_LaneEngineRingGeneral)->Arg(32)->Arg(128);

// Deviated lane kernels: the Lemma 4.1 rushing coalition (k = n/4, equally
// spaced) on the A-LEADuni kernel, general path.
void BM_LaneEngineRingDeviated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Coalition coalition = Coalition::equally_spaced(n, n / 4, 1);
  LaneEngineOptions options;
  options.deviation.id = LaneDeviationId::kRushing;
  options.deviation.members = coalition.members();
  options.deviation.segment_lengths = coalition.segment_lengths();
  options.deviation.target = 1;
  LaneEngine engine(n, LaneKernelId::kALeadUni, options);
  std::vector<std::uint64_t> seeds(256);
  std::vector<TrialStats> results(seeds.size());
  std::uint64_t base = 0;
  AllocationScope allocations(state, "allocations_per_window");
  for (auto _ : state) {
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = ++base;
    engine.run_window(seeds, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_LaneEngineRingDeviated)->Arg(32)->Arg(128);

// ---- end-to-end run_scenario throughput (items/sec = trials/sec) ---------

void run_scenario_throughput(benchmark::State& state, ScenarioSpec spec) {
  AllocationScope allocations(state, "allocations_per_batch");
  for (auto _ : state) {
    spec.seed += 1;  // fresh trial seeds each batch, same workload shape
    const ScenarioResult result = run_scenario(spec);
    benchmark::DoNotOptimize(result.outcomes.trials());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(spec.trials));
}

// Honest basic-lead under engine=auto: token-sum serves the unaudited
// trials, and every call pays its own audited trials on the scalar ring
// engine.
void BM_RunScenarioRing(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.protocol = "basic-lead";
  spec.n = static_cast<int>(state.range(0));
  spec.trials = 100;
  spec.threads = 1;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioRing)->Arg(32)->Arg(128);

// BM_RunScenarioRing's workload pinned to the scalar engine, so the
// items/sec ratio is the closed-form layer's end-to-end win (the results
// themselves are bit-identical — that is gated in the test suite).  The
// release-perf lane gate divides BM_LaneEngineRingGeneral by this row.
void BM_RunScenarioRingScalar(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.protocol = "basic-lead";
  spec.n = static_cast<int>(state.range(0));
  spec.trials = 100;
  spec.threads = 1;
  spec.engine = EngineKind::kScalar;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioRingScalar)->Arg(32)->Arg(128);

void BM_RunScenarioRingParallel(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.protocol = "basic-lead";
  spec.n = 64;
  spec.trials = 512;
  spec.threads = 0;  // one worker per core
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioRingParallel);

void BM_RunScenarioGraph(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kGraph;
  spec.protocol = "shamir-lead";
  spec.n = 8;
  spec.trials = 50;
  spec.threads = 1;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioGraph);

// Honest sync under engine=auto: token-sum serves the unaudited trials
// (api/specialize.h), and every call pays its own audited trials on the
// scalar sync engine.  BM_RunScenarioSyncScalar below simulates them all.
void BM_RunScenarioSync(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kSync;
  spec.protocol = "sync-broadcast-lead";
  spec.n = 16;
  spec.trials = 200;
  spec.threads = 1;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioSync);

// Basic-single on basic-lead under engine=auto (deviated-constant serves
// the unaudited trials) and pinned to the scalar engine, and the pinned
// scalar sync row.
void BM_RunScenarioDeviatedScalar(benchmark::State& state) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.deviation = "basic-single";
  spec.target = 3;
  spec.n = 128;
  spec.trials = 100;
  spec.threads = 1;
  spec.engine = EngineKind::kScalar;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioDeviatedScalar);

void BM_RunScenarioDeviated(benchmark::State& state) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.deviation = "basic-single";
  spec.target = 3;
  spec.n = 128;
  spec.trials = 100;
  spec.threads = 1;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioDeviated);

void BM_RunScenarioSyncScalar(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kSync;
  spec.protocol = "sync-broadcast-lead";
  spec.n = 16;
  spec.trials = 200;
  spec.threads = 1;
  spec.engine = EngineKind::kScalar;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioSyncScalar);

// The deviated oracle path: e04's cubic staircase (Theorem 4.3) on
// A-LEADuni, pinned to the scalar RingEngine.  Every trial delivers n²
// messages through the engine's send and delivery loop and the cubic and
// honest strategies' receives.
void BM_RunScenarioCubicScalar(benchmark::State& state) {
  ScenarioSpec spec;
  spec.protocol = "alead-uni";
  spec.deviation = "cubic";
  spec.n = static_cast<int>(state.range(0));
  spec.coalition = CoalitionSpec::cubic_staircase(Coalition::cubic_min_k(spec.n));
  spec.target = static_cast<Value>(spec.n / 2);
  spec.trials = 16;
  spec.threads = 1;
  spec.engine = EngineKind::kScalar;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioCubicScalar)->Arg(64)->Arg(256);

// ---- sweep vs serial: cross-scenario work stealing (items/sec = trials) --
//
// The PR-4 acceptance workload, shaped like the drivers that motivated the
// sweep layer: hundreds of fuzz-spec-sized scenarios (a couple of trials
// each — smaller than the worker count, so scenario-at-a-time execution
// strands workers AND pays a full submission round-trip per scenario) plus
// a few larger table rows.  Serial = one run_scenario call per scenario;
// Batched = the identical scenarios as ONE run_sweep submission sharing
// the executor's chunk queue.  Same trials, same seeds, same results — the
// items/sec ratio is the sweep layer's win (>= 1.5x even on one core,
// where only the submission amortization shows; larger on multicore,
// where the stranded workers come back too).

SweepSpec mixed_sweep_spec() {
  SweepSpec sweep;
  sweep.threads = 8;
  for (int i = 0; i < 320; ++i) {
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.n = 8;
    spec.trials = 2;
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    sweep.add(spec);
  }
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.n = 64;
    spec.trials = 8;
    spec.seed = 900 + static_cast<std::uint64_t>(i);
    sweep.add(spec);
  }
  return sweep;
}

std::int64_t sweep_trials(const SweepSpec& sweep) {
  std::int64_t total = 0;
  for (const ScenarioSpec& spec : sweep.scenarios) {
    total += static_cast<std::int64_t>(spec.trials);
  }
  return total;
}

void BM_MixedSweepSerial(benchmark::State& state) {
  const SweepSpec sweep = mixed_sweep_spec();
  for (auto _ : state) {
    for (ScenarioSpec spec : sweep.scenarios) {
      spec.threads = sweep.threads;
      benchmark::DoNotOptimize(run_scenario(spec).outcomes.trials());
    }
  }
  state.SetItemsProcessed(state.iterations() * sweep_trials(sweep));
}
BENCHMARK(BM_MixedSweepSerial)->UseRealTime();

void BM_MixedSweepBatched(benchmark::State& state) {
  const SweepSpec sweep = mixed_sweep_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(sweep).size());
  }
  state.SetItemsProcessed(state.iterations() * sweep_trials(sweep));
}
BENCHMARK(BM_MixedSweepBatched)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
