#include "sim/lane_engine.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>

namespace fle {

const char* to_string(LaneKernelId kernel) {
  switch (kernel) {
    case LaneKernelId::kBasicLead:
      return "basic-lead";
    case LaneKernelId::kChangRoberts:
      return "chang-roberts";
    case LaneKernelId::kALeadUni:
      return "alead-uni";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Kernels: each replicates its scalar strategy's event handlers exactly
// (src/protocols/*.cpp), with strategy fields mapped onto the SoA register
// file.  Any divergence here is caught by the lane differential gates.

/// basic-lead (paper §3): reg_a = d_, reg_b = sum_, cnt_ = count_.
struct LaneEngine::BasicLeadKernel {
  static constexpr bool kNeedsIds = false;

  static void init(LaneEngine& e, LaneEngine::TrialHot& hot, ProcessorId p, std::uint64_t seed) {
    const std::size_t i = static_cast<std::size_t>(p);
    const Value n = static_cast<Value>(e.n_);
    const Value d = e.tape_uniform(seed, p, n);
    e.reg_a_[i] = d;
    e.lane_send(hot, p, d);
  }

  static void receive(LaneEngine& e, LaneEngine::TrialHot& hot, ProcessorId p, Value v) {
    const std::size_t i = static_cast<std::size_t>(p);
    const Value n = hot.n;
    if (v >= n) v %= n;
    const std::uint64_t count = ++hot.cnt[i];
    Value sum = hot.reg_b[i] + v;
    if (sum >= n) sum -= n;
    hot.reg_b[i] = sum;
    if (count < n) {
      e.lane_send(hot, p, v);
      return;
    }
    if (v == hot.reg_a[i]) {
      e.lane_finish(hot, p, false, sum);
    } else {
      e.lane_finish(hot, p, true, 0);
    }
  }
};

/// chang-roberts: reg_a = lid_, flag_a = detector_, flag_b = done_.  The
/// per-trial logical-id permutation is rebuilt with the exact
/// ChangRobertsProtocol::random(n, seed) construction.
struct LaneEngine::ChangRobertsKernel {
  static constexpr bool kNeedsIds = true;

  static void init(LaneEngine& e, LaneEngine::TrialHot& hot, ProcessorId p,
                   std::uint64_t /*seed*/) {
    const std::size_t i = static_cast<std::size_t>(p);
    e.reg_a_[i] = e.cr_ids_[i];
    e.lane_send(hot, p, e.reg_a_[i]);
  }

  static void receive(LaneEngine& e, LaneEngine::TrialHot& hot, ProcessorId p, Value v) {
    const std::size_t i = static_cast<std::size_t>(p);
    if (hot.flag_b[i]) return;
    const Value announce_base = hot.n;
    if (v >= announce_base) {
      const Value leader = v - announce_base;
      if (hot.flag_a[i]) {
        e.lane_finish(hot, p, false, leader);
      } else {
        e.lane_send(hot, p, v);
        e.lane_finish(hot, p, false, leader);
      }
      hot.flag_b[i] = 1;
      return;
    }
    if (v > hot.reg_a[i]) {
      e.lane_send(hot, p, v);
    } else if (v == hot.reg_a[i]) {
      hot.flag_a[i] = 1;
      e.lane_send(hot, p, announce_base + static_cast<Value>(p));
    }
    // Smaller candidates are swallowed.
  }
};

/// alead-uni (paper §3.2): origin (p == 0) reg_a = d_, reg_b = sum_;
/// normal adds reg_c = buffer_ (one-round delay).
struct LaneEngine::ALeadUniKernel {
  static constexpr bool kNeedsIds = false;

  static void init(LaneEngine& e, LaneEngine::TrialHot& hot, ProcessorId p, std::uint64_t seed) {
    const std::size_t i = static_cast<std::size_t>(p);
    const Value n = static_cast<Value>(e.n_);
    const Value d = e.tape_uniform(seed, p, n);
    e.reg_a_[i] = d;
    if (p == 0) {
      e.lane_send(hot, p, d);
    } else {
      e.reg_c_[i] = d;  // commit: the secret leaves the buffer first
    }
  }

  static void receive(LaneEngine& e, LaneEngine::TrialHot& hot, ProcessorId p, Value v) {
    const std::size_t i = static_cast<std::size_t>(p);
    const Value n = hot.n;
    v %= n;
    if (p == 0) {
      const std::uint64_t count = ++hot.cnt[i];
      hot.reg_b[i] = (hot.reg_b[i] + v) % n;
      if (count < n) {
        e.lane_send(hot, p, v);
        return;
      }
      if (v == hot.reg_a[i]) {
        e.lane_finish(hot, p, false, hot.reg_b[i]);
      } else {
        e.lane_finish(hot, p, true, 0);
      }
      return;
    }
    e.lane_send(hot, p, hot.reg_c[i]);  // delayed value first
    hot.reg_c[i] = v;
    const std::uint64_t count = ++hot.cnt[i];
    hot.reg_b[i] = (hot.reg_b[i] + v) % n;
    if (count == n) {
      if (v == hot.reg_a[i]) {
        e.lane_finish(hot, p, false, hot.reg_b[i]);
      } else {
        e.lane_finish(hot, p, true, 0);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Deviation kernels: coalition members' receive handlers, replicating
// src/attacks/{basic_single,rushing}.cpp exactly.  Member wake-up is silent
// in both attacks (no tape draw, no send), so start_trial simply skips
// member cells; member state overlays the honest register file (cnt_ =
// received count, reg_b_ = running mod-n sum, flag_b_ = done) plus the
// aux_ replay column.

/// The honest profile: no member cells, the dispatch branch compiles away.
struct LaneEngine::HonestDev {
  static constexpr bool kActive = false;
  static void receive(LaneEngine&, LaneEngine::TrialHot&, ProcessorId, Value) {}
};

/// basic-single (Appendix B): buffer the n-1 honest values, then cancel
/// them with m = target - sum and replay so every honest processor's own
/// value arrives last.
struct LaneEngine::BasicSingleDev {
  static constexpr bool kActive = true;

  static void receive(LaneEngine& e, LaneEngine::TrialHot& hot, ProcessorId p, Value v) {
    const std::size_t i = static_cast<std::size_t>(p);
    if (hot.flag_b[i]) return;
    const Value n = hot.n;
    v %= n;
    Value* aux = e.aux_.data() + e.dev_aux_[static_cast<std::size_t>(p)];
    aux[hot.cnt[i]] = v;
    hot.reg_b[i] += v;
    if (hot.reg_b[i] >= n) hot.reg_b[i] -= n;
    const std::uint64_t count = ++hot.cnt[i];
    if (count < n - 1) return;

    // All n-1 honest values collected: cancel them out.
    const Value m = (e.dev_target_ + n - hot.reg_b[i]) % n;
    e.lane_send(hot, p, m);
    for (std::uint64_t j = 0; j < count; ++j) e.lane_send(hot, p, aux[j]);
    hot.flag_b[i] = 1;
    e.lane_finish(hot, p, false, e.dev_target_);
  }
};

/// rushing (Lemma 4.1): pipe the first n-k values through, then burst the
/// correcting value, k-l_j-1 zeros, and the segment's last l_j values.
/// The sliding window of the last l_j received values lives in the aux_
/// column at dev_aux_[p], written at index (received % l_j) — at the
/// trigger point each residue holds exactly the stream entry the scalar
/// strategy replays.
struct LaneEngine::RushingDev {
  static constexpr bool kActive = true;

  static void receive(LaneEngine& e, LaneEngine::TrialHot& hot, ProcessorId p, Value v) {
    const std::size_t i = static_cast<std::size_t>(p);
    if (hot.flag_b[i]) return;
    const Value n = hot.n;
    v %= n;
    const int lj = e.dev_lj_[static_cast<std::size_t>(p)];
    Value* win = e.aux_.data() + e.dev_aux_[static_cast<std::size_t>(p)];
    if (lj > 0) win[hot.cnt[i] % static_cast<std::uint64_t>(lj)] = v;
    hot.reg_b[i] += v;
    if (hot.reg_b[i] >= n) hot.reg_b[i] -= n;
    const std::uint64_t received = ++hot.cnt[i];
    if (received < e.dev_honest_total_) {
      e.lane_send(hot, p, v);  // rush: pipe instead of buffering
      return;
    }
    if (received > e.dev_honest_total_) return;  // late traffic is ignored

    // received == n-k: pipe this one too, then burst the remaining k sends.
    e.lane_send(hot, p, v);
    const std::uint64_t honest_total = e.dev_honest_total_;
    Value s_segment = 0;
    for (int j = 0; j < lj; ++j) {
      const std::uint64_t idx = honest_total - static_cast<std::uint64_t>(lj - j);
      s_segment += win[idx % static_cast<std::uint64_t>(lj)];
      if (s_segment >= n) s_segment -= n;
    }
    const Value m = (e.dev_target_ + 2 * n - hot.reg_b[i] - s_segment) % n;
    e.lane_send(hot, p, m);
    for (int j = 0; j < e.dev_k_ - lj - 1; ++j) e.lane_send(hot, p, 0);
    for (int j = 0; j < lj; ++j) {
      const std::uint64_t idx = honest_total - static_cast<std::uint64_t>(lj - j);
      e.lane_send(hot, p, win[idx % static_cast<std::uint64_t>(lj)]);
    }
    hot.flag_b[i] = 1;
    e.lane_finish(hot, p, false, e.dev_target_);
  }
};

// ---------------------------------------------------------------------------

LaneEngine::LaneEngine(int n, LaneKernelId kernel, LaneEngineOptions options)
    : n_(n),
      kernel_(kernel),
      step_limit_(options.step_limit != 0
                      ? options.step_limit
                      : 8ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) +
                            1024),
      scheduler_kind_(options.scheduler_kind),
      deviation_(std::move(options.deviation)) {
  if (n_ < 2) throw std::invalid_argument("ring needs at least 2 processors");

  // An empty coalition is the honest profile whatever the deviation id
  // says (Bernoulli placements may legitimately sample k = 0).
  if (deviation_.members.empty()) deviation_.id = LaneDeviationId::kNone;
  dev_member_.assign(static_cast<std::size_t>(n_), 0);
  dev_lj_.assign(static_cast<std::size_t>(n_), 0);
  dev_aux_.assign(static_cast<std::size_t>(n_), 0);
  if (deviation_.id != LaneDeviationId::kNone) {
    if (deviation_.target >= static_cast<Value>(n_)) {
      throw std::invalid_argument("lane deviation target out of range");
    }
    dev_target_ = deviation_.target;
    dev_k_ = static_cast<int>(deviation_.members.size());
    dev_honest_total_ = static_cast<std::uint64_t>(n_ - dev_k_);
    const bool rushing = deviation_.id == LaneDeviationId::kRushing;
    if (rushing && deviation_.segment_lengths.size() != deviation_.members.size()) {
      throw std::invalid_argument("lane rushing spec needs one segment length per member");
    }
    if (deviation_.id == LaneDeviationId::kBasicSingle && dev_k_ != 1) {
      throw std::invalid_argument("basic-single is a single-adversary attack");
    }
    std::uint32_t aux_offset = 0;
    ProcessorId previous = -1;
    for (std::size_t j = 0; j < deviation_.members.size(); ++j) {
      const ProcessorId m = deviation_.members[j];
      if (m <= previous || m >= n_) {
        throw std::invalid_argument("lane deviation members must be ascending in [0, n)");
      }
      previous = m;
      dev_member_[static_cast<std::size_t>(m)] = 1;
      dev_aux_[static_cast<std::size_t>(m)] = aux_offset;
      if (rushing) {
        const int lj = deviation_.segment_lengths[j];
        if (lj < 0 || static_cast<std::uint64_t>(lj) > dev_honest_total_) {
          throw std::invalid_argument("lane rushing segment length out of range");
        }
        dev_lj_[static_cast<std::size_t>(m)] = lj;
        aux_offset += static_cast<std::uint32_t>(lj);
      } else {
        aux_offset += static_cast<std::uint32_t>(n_ - 1);
      }
    }
    if (aux_offset > static_cast<std::uint32_t>(n_)) {
      // basic-single stores n-1 values; rushing windows sum to n-k.  One
      // n-wide column therefore always suffices.
      throw std::invalid_argument("lane deviation replay storage exceeds one column");
    }
  }

  const std::size_t cells = static_cast<std::size_t>(n_);
  inbox_.configure(cells);
  reg_a_.resize(cells);
  reg_b_.resize(cells);
  reg_c_.resize(cells);
  cnt_.resize(cells);
  flag_a_.resize(cells);
  flag_b_.resize(cells);
  terminated_.resize(cells);
  out_has_.resize(cells);
  out_aborted_.resize(cells);
  out_value_.resize(cells);
  sent_.resize(cells);
  if (deviation_.id != LaneDeviationId::kNone) aux_.resize(cells);
  // One scratch slot past n: the predicated insert writes ready[count]
  // even when the processor is already listed (count then stays put).
  ready_.assign(cells + 1, 0);
  ready_pos_.assign(cells, -1);
  // Every kernel/deviation pair sends at most n+1 messages per processor
  // (chang-roberts' max-id owner: wake-up + n-1 forwards + announce), so
  // presizing the sync-gap histogram keeps the steady state allocation
  // free; lane_send retains the growth fallback for safety.
  sent_freq_.assign(cells + 4, 0);
  cr_ids_.resize(cells);
}

Value LaneEngine::tape_uniform(std::uint64_t seed, ProcessorId p, Value bound) const {
  // The kernels draw from the tape at most once, at wake-up, so a
  // transient tape reproduces the scalar Context's stream exactly.
  RandomTape tape(seed, p);
  return tape.uniform(bound);
}

void LaneEngine::mark_ready(TrialHot& hot, ProcessorId p) {
  int& pos = hot.ready_pos[static_cast<std::size_t>(p)];
  if (pos >= 0) return;
  pos = static_cast<int>(hot.ready_count);
  hot.ready[hot.ready_count++] = p;
}

void LaneEngine::unmark_ready(TrialHot& hot, ProcessorId p) {
  const int pos = hot.ready_pos[static_cast<std::size_t>(p)];
  if (pos < 0) return;
  unmark_at(hot, static_cast<std::size_t>(pos), p);
}

void LaneEngine::unmark_at(TrialHot& hot, std::size_t idx, ProcessorId p) {
  // Same swap-remove as unmark_ready with the ready_pos lookup elided
  // (idx == ready_pos[p] by the list invariant).
  const ProcessorId last = hot.ready[hot.ready_count - 1];
  hot.ready[idx] = last;
  hot.ready_pos[static_cast<std::size_t>(last)] = static_cast<int>(idx);
  --hot.ready_count;
  hot.ready_pos[static_cast<std::size_t>(p)] = -1;
}

std::size_t LaneEngine::pick_index(TrialHot& hot) {
  if (scheduler_kind_ == SchedulerKind::kRandom) return sched_rng_.below(hot.ready_count);
  std::size_t best = 0;  // kPriority
  for (std::size_t i = 1; i < hot.ready_count; ++i) {
    if (priority_[static_cast<std::size_t>(hot.ready[i])] <
        priority_[static_cast<std::size_t>(hot.ready[best])]) {
      best = i;
    }
  }
  return best;
}

void LaneEngine::lane_send(TrialHot& hot, ProcessorId from, Value v) {
  ProcessorId to = from + 1;
  if (static_cast<Value>(to) == hot.n) to = 0;

  const std::uint64_t s = hot.sent[static_cast<std::size_t>(from)]++;
  if (!hot.gap_frozen) {
    // Same trace as the scalar histogram with the two scans collapsed:
    // counts move up one level at a time, so when level s drains and s was
    // the minimum the new minimum is exactly s+1 (the level just
    // incremented); and max - min grows only when max does, so the gap
    // folds under that test alone.
    if (s + 2 >= hot.sent_freq_size) [[unlikely]] {
      sent_freq_.resize(s + 3, 0);
      hot.sent_freq = sent_freq_.data();
      hot.sent_freq_size = sent_freq_.size();
    }
    std::uint64_t* freq = hot.sent_freq;
    assert(freq[s] > 0);
    if (--freq[s] == 0 && s == hot.min_sent) hot.min_sent = s + 1;
    ++freq[s + 1];
    if (s + 1 > hot.max_sent) {
      hot.max_sent = s + 1;
      const std::uint64_t gap = hot.max_sent - hot.min_sent;
      if (gap > hot.max_sync_gap) hot.max_sync_gap = gap;
    }
  }

  const std::size_t dst = static_cast<std::size_t>(to);
  if (!hot.terminated[dst]) {
    // The inbox push, through the trial's cached cursors (inbox.h View).
    std::uint64_t* ht = hot.ibx.ht + dst * 2;
    if (ht[1] - ht[0] == hot.ibx.cap) [[unlikely]] {
      hot.ibx = inbox_.grow_view();
      ht = hot.ibx.ht + dst * 2;
    }
    hot.ibx.data[(dst << hot.ibx.shift) + (ht[1]++ & hot.ibx.mask)] = v;
    mark_ready(hot, to);
  }
}

void LaneEngine::lane_finish(TrialHot& hot, ProcessorId p, bool aborted, Value value) {
  const std::size_t i = static_cast<std::size_t>(p);
  assert(!out_has_[i]);
  out_has_[i] = 1;
  out_aborted_[i] = aborted ? 1 : 0;
  out_value_[i] = value;
  terminated_[i] = 1;
  hot.gap_frozen = true;
  unmark_ready(hot, p);
  inbox_.clear_cell(i);
}

template <typename Kernel, typename Dev>
void LaneEngine::start_trial(std::uint64_t seed, TrialHot& hot) {
  const std::size_t n = static_cast<std::size_t>(n_);
  std::fill(ready_pos_.begin(), ready_pos_.end(), -1);
  sent_freq_.assign(n + 4, 0);
  sent_freq_[0] = static_cast<std::uint64_t>(n_);

  // The per-trial scalars live in the caller's stack frame (TrialHot) so the
  // optimizer can keep them in registers across the SoA column stores.
  hot.rr_cursor = 0;
  hot.ready_count = 0;
  hot.min_sent = 0;
  hot.max_sent = 0;
  hot.max_sync_gap = 0;
  hot.gap_frozen = false;
  hot.ready = ready_.data();
  hot.ready_pos = ready_pos_.data();
  hot.sent_freq = sent_freq_.data();
  hot.sent_freq_size = sent_freq_.size();
  hot.n = static_cast<Value>(n_);
  hot.sent = sent_.data();
  hot.cnt = cnt_.data();
  hot.reg_a = reg_a_.data();
  hot.reg_b = reg_b_.data();
  hot.reg_c = reg_c_.data();
  hot.flag_a = flag_a_.data();
  hot.flag_b = flag_b_.data();
  hot.terminated = terminated_.data();
  hot.ibx = inbox_.view();

  // Restart the built-in schedule exactly as RingEngine::reset does.
  switch (scheduler_kind_) {
    case SchedulerKind::kRoundRobin:
      break;
    case SchedulerKind::kRandom:
      sched_rng_ = Xoshiro256(seed);
      break;
    case SchedulerKind::kPriority:
      fill_priority_permutation(priority_, n_, seed);
      break;
  }

  for (std::size_t i = 0; i < n; ++i) {
    inbox_.clear_cell(i);
    reg_a_[i] = 0;
    reg_b_[i] = 0;
    reg_c_[i] = 0;
    cnt_[i] = 0;
    flag_a_[i] = 0;
    flag_b_[i] = 0;
    terminated_[i] = 0;
    out_has_[i] = 0;
    out_aborted_[i] = 0;
    out_value_[i] = 0;
    sent_[i] = 0;
  }

  // Per-trial logical ids, the same draw as ChangRobertsProtocol::random.
  if constexpr (Kernel::kNeedsIds) shuffled_ids(cr_ids_, seed);

  // Wake-up phase, in processor order like the scalar run().  Coalition
  // members stay silent (their on_init is a no-op in both attacks — no
  // tape draw, no send), so member cells are simply skipped.
  for (ProcessorId p = 0; p < n_; ++p) {
    if constexpr (Dev::kActive) {
      if (dev_member_[static_cast<std::size_t>(p)]) continue;
    }
    if (!terminated_[static_cast<std::size_t>(p)]) Kernel::init(*this, hot, p, seed);
  }
}

template <typename Kernel, typename Dev>
void LaneEngine::run_batch(std::span<const std::uint64_t> seeds, std::span<TrialStats> out) {
  const std::uint64_t limit = step_limit_;
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    TrialHot hot;
    start_trial<Kernel, Dev>(seeds[t], hot);
    const SchedulerKind sched = scheduler_kind_;
    bool step_limit_hit = false;
    // Step budget as a countdown: `budget == 0` here iff the scalar loop's
    // `deliveries >= limit` (budget starts at limit and drops once per
    // delivery), but the countdown needs no second counter register.
    std::uint64_t budget = limit;
    while (hot.ready_count != 0) {
      if (budget == 0) [[unlikely]] {
        // The step bound with work still pending: the scalar loop's break.
        step_limit_hit = true;
        break;
      }
      --budget;
      std::size_t pick;
      switch (sched) {
        case SchedulerKind::kRoundRobin:
          // Same wrapping cursor as the scalar engine's fast path.
          if (hot.rr_cursor >= hot.ready_count) hot.rr_cursor = 0;
          pick = hot.rr_cursor++;
          break;
        default:
          pick = pick_index(hot);
          break;
      }
      const ProcessorId p = hot.ready[pick];
      // Fused inbox pop + drain test through the trial's cached cursors.
      const std::size_t cell = static_cast<std::size_t>(p);
      std::uint64_t* const ht = hot.ibx.ht + cell * 2;
      const std::uint64_t h = ht[0]++;
      const Value v = hot.ibx.data[(cell << hot.ibx.shift) + (h & hot.ibx.mask)];
      if (h + 1 == ht[1]) unmark_at(hot, pick, p);
      if constexpr (Dev::kActive) {
        if (dev_member_[cell]) {
          Dev::receive(*this, hot, p, v);
          continue;
        }
      }
      Kernel::receive(*this, hot, p, v);
    }
    out[t] = retire(hot, step_limit_hit);
  }
}

TrialStats LaneEngine::retire(const TrialHot& hot, bool step_limit_hit) const {
  const std::size_t n = static_cast<std::size_t>(n_);
  TrialStats result;
  // Total messages = sum of the per-processor send counters (the hot loop
  // keeps no running total; every lane_send bumps sent_ exactly once,
  // including sends dropped at a terminated destination).
  std::uint64_t messages = 0;
  for (std::size_t i = 0; i < n; ++i) messages += sent_[i];
  result.messages = messages;
  result.sync_gap = hot.max_sync_gap;
  result.step_limit_hit = step_limit_hit;

  // aggregate_outcome (core/types.h) over the output columns.
  std::optional<Value> agreed;
  bool failed = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!out_has_[i] || out_aborted_[i] || out_value_[i] >= static_cast<Value>(n_) ||
        (agreed && *agreed != out_value_[i])) {
      failed = true;
      break;
    }
    agreed = out_value_[i];
  }
  result.outcome = (failed || !agreed) ? Outcome::fail() : Outcome::elected(*agreed);
  return result;
}

template <typename Kernel>
void LaneEngine::dispatch_kernel(std::span<const std::uint64_t> seeds,
                                 std::span<TrialStats> out) {
  switch (deviation_.id) {
    case LaneDeviationId::kNone:
      run_batch<Kernel, HonestDev>(seeds, out);
      break;
    case LaneDeviationId::kBasicSingle:
      run_batch<Kernel, BasicSingleDev>(seeds, out);
      break;
    case LaneDeviationId::kRushing:
      run_batch<Kernel, RushingDev>(seeds, out);
      break;
  }
}

void LaneEngine::run_window(std::span<const std::uint64_t> seeds, std::span<TrialStats> out) {
  if (out.size() < seeds.size()) {
    throw std::invalid_argument("lane engine: result span smaller than seed span");
  }
  switch (kernel_) {
    case LaneKernelId::kBasicLead:
      dispatch_kernel<BasicLeadKernel>(seeds, out);
      break;
    case LaneKernelId::kChangRoberts:
      dispatch_kernel<ChangRobertsKernel>(seeds, out);
      break;
    case LaneKernelId::kALeadUni:
      dispatch_kernel<ALeadUniKernel>(seeds, out);
      break;
  }
}

}  // namespace fle
