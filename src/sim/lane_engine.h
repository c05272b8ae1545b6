#pragma once
// Batched structure-of-arrays trial lanes for the ring runtime
// (DESIGN.md §10).
//
// A LaneEngine runs the trials of a window through one preallocated set of
// SoA columns: the in-flight trial's inbox ring buffers, token/phase
// registers and termination flags live in parallel arrays indexed by
// processor.  Each trial runs as a *burst* — its delivery loop runs to
// completion before the window's next trial starts.  (A lock-step variant
// that kept several trials resident and advanced each one delivery per
// sweep was measured slower: the extra indirection per delivery cost more
// than the memory-level parallelism bought.)  One burst's speedup over the
// scalar RingEngine comes from devirtualization (kernel and deviation
// handlers inline into the delivery step), the contiguous RingBufferColumn
// inbox (sim/inbox.h — no per-queue heap objects, and paired head/tail
// counters so a delivery's pop and push each touch one control cache
// line), the per-trial TrialHot register file (run_batch keeps the trial's
// scalars and raw column cursors in a local struct whose helpers are
// force-inlined, so the loop reads stack slots instead of chasing
// this->vector->data indirections that rare in-loop grow()/resize() calls
// stop GCC from hoisting), the O(1) min/max sync-gap histogram, and
// transcript recording compiled out of the non-recording window
// instantiation.  Measured on the reference setup this lands the burst
// loop at ~2.2x the scalar engine per delivery.
//
// Bit-identity contract: each trial replicates the scalar RingEngine's
// per-trial algorithm exactly — same ready-set swap-remove bookkeeping,
// same wrapping round-robin cursor, same per-trial scheduler reseed, same
// tape draw order, same sync-gap histogram with termination freeze, same
// transcript event sequence.  ScenarioResults and transcript digests
// match the scalar engine bit for bit (the conformance suite's lane
// differential gates this).
//
// Deviated profiles: the two attacks that dominate the paper's resilience
// tables — basic-single (Appendix B) and rushing (Lemma 4.1) — have lane
// kernels too.  Coalition members reuse the honest register file (cnt_ =
// received count, reg_b_ = running mod-n sum, flag_b_ = done) plus a flat
// aux_ column for the replay buffers (basic-single's n-1 captured values;
// rushing's per-member sliding window of the last l_j values, packed by
// prefix sums of l_j — sum l_j = n-k <= n, so one n-wide column covers
// every placement).
//
// The engine has one path: every trial it is handed runs the burst loop.
// Shapes whose trial results the paper states outright (honest token-sum,
// the two forcing attacks, chang-roberts under round-robin) are served
// above it by the closed-form layer in api/specialize.h, which runs its
// audited trials through this engine and compares.

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "sim/inbox.h"
#include "sim/scheduler.h"
#include "sim/transcript.h"

namespace fle {

/// The built-in protocols with devirtualized lane kernels.  The
/// specializer (src/api/specialize.h) routes every lane-eligible spec
/// here; everything else runs on the general scalar engine.
enum class LaneKernelId { kBasicLead, kChangRoberts, kALeadUni };

const char* to_string(LaneKernelId kernel);

/// The built-in deviations with lane kernels (kNone = honest profile).
enum class LaneDeviationId { kNone, kBasicSingle, kRushing };

/// A resolved deviated profile: which ring positions deviate and with what
/// parameters.  Built by the Scenario API from the spec's Coalition (the
/// lane engine never re-derives placements — it consumes the same members
/// and segment lengths the scalar profile composition uses).
struct LaneDeviationSpec {
  LaneDeviationId id = LaneDeviationId::kNone;
  /// Coalition members, ascending (Coalition::members()).
  std::vector<ProcessorId> members;
  /// l_j per member (Coalition::segment_lengths()); rushing only.
  std::vector<int> segment_lengths;
  Value target = 0;

  friend bool operator==(const LaneDeviationSpec&, const LaneDeviationSpec&) = default;
};

struct LaneEngineOptions {
  /// Hard bound on deliveries per trial; 0 = 8n^2 + 1024 (same default as
  /// the scalar RingEngine).
  std::uint64_t step_limit = 0;
  SchedulerKind scheduler_kind = SchedulerKind::kRoundRobin;
  /// Deviated profile to run (kNone = honest).
  LaneDeviationSpec deviation;
};

/// What one trial leaves behind (mirrors the scalar engine's outcome +
/// ExecutionStats fields the Scenario API consumes).
struct LaneTrialResult {
  Outcome outcome = Outcome::fail();
  std::uint64_t messages = 0;      ///< total sent (ExecutionStats::total_sent)
  std::uint64_t max_sync_gap = 0;  ///< ExecutionStats::max_sync_gap
  std::uint64_t rounds = 0;        ///< sync runtime only; ring lanes report 0
  bool step_limit_hit = false;
};

class LaneEngine {
 public:
  LaneEngine(int n, LaneKernelId kernel, LaneEngineOptions options = {});

  LaneEngine(const LaneEngine&) = delete;
  LaneEngine& operator=(const LaneEngine&) = delete;

  /// Runs one window of trials: seeds[i] is trial i's seed and out[i]
  /// receives its result (out.size() >= seeds.size()).  `transcripts`,
  /// when non-empty, must parallel `seeds`; non-null entries record that
  /// trial's event stream (the caller clears them first, as with
  /// RingEngine::set_transcript).  Steady-state windows allocate nothing
  /// once queues and histograms have grown to their high-water marks.
  void run_window(std::span<const std::uint64_t> seeds, std::span<LaneTrialResult> out,
                  std::span<ExecutionTranscript* const> transcripts = {});

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] LaneKernelId kernel() const { return kernel_; }
  [[nodiscard]] std::uint64_t step_limit() const { return step_limit_; }
  [[nodiscard]] SchedulerKind scheduler_kind() const { return scheduler_kind_; }
  [[nodiscard]] const LaneDeviationSpec& deviation() const { return deviation_; }

 private:
  struct BasicLeadKernel;
  struct ChangRobertsKernel;
  struct ALeadUniKernel;
  struct HonestDev;
  struct BasicSingleDev;
  struct RushingDev;

  /// The delivery loop's per-trial scalars and array cursors, instantiated
  /// as a *stack local* while a trial runs.  This is the load-bearing perf
  /// trick of the general path: the SoA columns are uint64 arrays, so a
  /// store through any of them may alias a uint64 member field and forces
  /// the compiler to reload every cached member after every store — as a
  /// local whose address never leaves the inlined loop, points-to analysis
  /// keeps all of this in registers across the whole delivery.
  struct TrialHot {
    std::uint64_t deliveries = 0;
    std::uint64_t rr_cursor = 0;
    std::size_t ready_count = 0;
    std::uint64_t min_sent = 0;
    std::uint64_t max_sent = 0;
    std::uint64_t max_sync_gap = 0;
    bool gap_frozen = false;
    ProcessorId* ready = nullptr;           ///< ready_.data()
    int* ready_pos = nullptr;               ///< ready_pos_.data()
    std::uint64_t* sent_freq = nullptr;     ///< sent_freq_.data()
    std::size_t sent_freq_size = 0;         ///< refreshed on (rare) regrowth

    // Cached column cursors: every array access through a vector member is
    // two dependent loads (control block, then element) that GCC refuses to
    // hoist out of the delivery loop — the rare grow()/resize() calls on
    // the full/frozen paths clobber its alias analysis.  Caching the data
    // pointers (and n) here cuts each access to one load.  All pointers
    // are stable for the whole trial except the inbox view, which
    // lane_send refreshes after a grow.
    Value n = 0;                            ///< n_ as a Value (kernel compares)
    std::uint64_t* sent = nullptr;
    std::uint64_t* cnt = nullptr;
    Value* reg_a = nullptr;
    Value* reg_b = nullptr;
    Value* reg_c = nullptr;
    std::uint8_t* flag_a = nullptr;
    std::uint8_t* flag_b = nullptr;
    std::uint8_t* terminated = nullptr;
    RingBufferColumn<Value>::View ibx;      ///< inbox cursors (see inbox.h)
  };

  template <typename Kernel, typename Dev>
  void run_window_impl(std::span<const std::uint64_t> seeds, std::span<LaneTrialResult> out,
                       std::span<ExecutionTranscript* const> transcripts);
  /// The burst loop: each trial runs to completion on the column set
  /// through a TrialHot register file built by start_trial.  kTranscribe
  /// compiles the per-delivery transcript hook (and the absolute delivery
  /// counter feeding it) in or out; the non-recording instantiation is the
  /// benchmarked hot path and uses a plain step-budget countdown.
  /// noinline: left to itself GCC 12 inlines every instantiation into
  /// run_window, and that layout cost ~10% more perfbench lane-ring cpu_s
  /// (10 alternating pairs, Release, 4-vCPU host); out of line, the loop
  /// keeps its measured codegen.
  template <typename Kernel, typename Dev, bool kTranscribe>
  [[gnu::noinline]] void run_batch(std::span<const std::uint64_t> seeds,
                                   std::span<LaneTrialResult> out,
                                   std::span<ExecutionTranscript* const> transcripts);
  template <typename Kernel, typename Dev>
  void start_trial(std::uint64_t seed, ExecutionTranscript* transcript, TrialHot& hot);
  template <typename Kernel>
  void dispatch_kernel(std::span<const std::uint64_t> seeds, std::span<LaneTrialResult> out,
                       std::span<ExecutionTranscript* const> transcripts);

  // always_inline: one call per delivery from every kernel's receive(); left
  // to its own heuristics GCC outlines it (60+ call sites), which pins the
  // caller's TrialHot to the stack and defeats the register file.
  [[gnu::always_inline]] inline void lane_send(TrialHot& hot, ProcessorId from, Value v);
  // lane_finish and pick_index stay outlined deliberately: force-inlining
  // them (measured) bloats the delivery loop past what the I-cache and
  // register file absorb and costs ~25%.  Only the tiny per-delivery
  // ready-list helpers join lane_send in the loop body.
  void lane_finish(TrialHot& hot, ProcessorId p, bool aborted, Value value);
  [[gnu::always_inline]] static inline void mark_ready(TrialHot& hot, ProcessorId p);
  static void unmark_ready(TrialHot& hot, ProcessorId p);
  /// unmark_ready for a processor whose ready-list index is already known
  /// (the delivery loop just picked it there), skipping the ready_pos load.
  [[gnu::always_inline]] static inline void unmark_at(TrialHot& hot, std::size_t idx,
                                                      ProcessorId p);
  /// Picks the next delivery target for kRandom/kPriority and returns its
  /// *index* into the ready list (the round-robin path is inlined in
  /// run_batch).
  [[nodiscard]] std::size_t pick_index(TrialHot& hot);
  /// The finished trial's result, read off the output and send columns.
  [[nodiscard]] LaneTrialResult retire(const TrialHot& hot, bool step_limit_hit) const;
  [[nodiscard]] Value tape_uniform(std::uint64_t seed, ProcessorId p, Value bound) const;

  int n_;
  LaneKernelId kernel_;
  std::uint64_t step_limit_;
  SchedulerKind scheduler_kind_;
  LaneDeviationSpec deviation_;

  // Per-processor SoA state of the trial in flight.  The three value
  // registers + counter + two flags cover every kernel's strategy state
  // (basic-lead: d/sum; a-lead: d/sum/buffer; chang-roberts:
  // lid/detector/done; deviation members overlay cnt_ = received,
  // reg_b_ = running sum, flag_b_ = done).
  RingBufferColumn<Value> inbox_;
  std::vector<Value> reg_a_;
  std::vector<Value> reg_b_;
  std::vector<Value> reg_c_;
  std::vector<std::uint64_t> cnt_;
  std::vector<std::uint8_t> flag_a_;
  std::vector<std::uint8_t> flag_b_;
  std::vector<std::uint8_t> terminated_;
  std::vector<std::uint8_t> out_has_;
  std::vector<std::uint8_t> out_aborted_;
  std::vector<Value> out_value_;
  std::vector<std::uint64_t> sent_;
  /// Deviation replay storage, n values; member p's window starts at
  /// dev_aux_[p].
  std::vector<Value> aux_;

  // Per-processor deviation configuration (constant across trials: the
  // registry's ring deviations are seed-independent).
  std::vector<std::uint8_t> dev_member_;
  std::vector<int> dev_lj_;
  std::vector<std::uint32_t> dev_aux_;
  Value dev_target_ = 0;
  int dev_k_ = 0;
  std::uint64_t dev_honest_total_ = 0;

  // Per-trial scheduler and accounting state.  The ready list is a
  // fixed-capacity buffer (n+1 slots, count in TrialHot): it never
  // reallocates mid-trial, so the delivery loop can hold its data pointer
  // in a register.
  Xoshiro256 sched_rng_{0};
  std::vector<int> priority_;
  std::vector<ProcessorId> ready_;
  std::vector<int> ready_pos_;
  std::vector<std::uint64_t> sent_freq_;
  ExecutionTranscript* transcript_ = nullptr;

  /// Chang-roberts per-trial logical ids, indexed by processor.
  std::vector<Value> cr_ids_;
};

}  // namespace fle
