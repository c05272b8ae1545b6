#include "sim/engine.h"

#include <cassert>
#include <stdexcept>

namespace fle {

// The per-send and per-delivery helpers come first: Context::send and the
// delivery loops below inline them.

void RingEngine::mark_ready(ProcessorId p) {
  auto& pos = ready_pos_[static_cast<std::size_t>(p)];
  if (pos >= 0) return;
  pos = static_cast<int>(ready_count_);
  ready_[ready_count_++] = p;
}

void RingEngine::unmark_ready(ProcessorId p) {
  auto& pos = ready_pos_[static_cast<std::size_t>(p)];
  if (pos < 0) return;
  const ProcessorId last = ready_[--ready_count_];
  ready_[static_cast<std::size_t>(pos)] = last;
  ready_pos_[static_cast<std::size_t>(last)] = pos;
  pos = -1;
}

void RingEngine::enqueue(ProcessorId from, Value v) {
  // ring_succ's modulo is a division on the per-send hot path; branch instead.
  ProcessorId to = from + 1;
  if (to == n_) to = 0;
  ++stats_.total_sent;
  const std::uint64_t s = stats_.sent[static_cast<std::size_t>(from)]++;

  if (!gap_frozen_) {
    // Move `from` one level up in the sent-count histogram.  Counts move up
    // one level at a time, so when level s drains and s was the minimum the
    // new minimum is exactly s+1 (the level just incremented); and
    // max - min grows only when max does, so the gap folds under that test
    // alone.
    if (s + 1 >= sent_freq_.size()) [[unlikely]] sent_freq_.resize(s + 2, 0);
    std::uint64_t* freq = sent_freq_.data();
    assert(freq[s] > 0);
    if (--freq[s] == 0 && s == min_sent_) min_sent_ = s + 1;
    ++freq[s + 1];
    if (s + 1 > max_sent_) {
      max_sent_ = s + 1;
      const std::uint64_t gap = max_sent_ - min_sent_;
      if (gap > stats_.max_sync_gap) stats_.max_sync_gap = gap;
    }
  }

  if (!terminated_[static_cast<std::size_t>(to)]) {
    inbox_[static_cast<std::size_t>(to)].push_back(v);
    mark_ready(to);
  }
  // Messages to terminated processors vanish: the receiver ignores them.
}

/// Runtime-facing processor context; forwards into the engine.  Stored by
/// value in a contiguous vector and reused across trials (reseed() swaps in
/// the new trial's tape without reconstructing the object).
class RingEngine::Context final : public RingContext {
 public:
  Context(RingEngine& engine, ProcessorId id, std::uint64_t trial_seed)
      : RingContext(id, engine.n_), engine_(&engine), tape_(trial_seed, id) {}

  void reseed(std::uint64_t trial_seed) { tape_ = RandomTape(trial_seed, id()); }

  void send(Value v) override {
    if (engine_->terminated_[static_cast<std::size_t>(id())]) {
      throw std::logic_error("strategy sent after terminating");
    }
    engine_->enqueue(id(), v);
  }

  void terminate(Value output) override { finish(LocalOutput{false, output}); }
  void abort() override { finish(LocalOutput{true, 0}); }

  RandomTape& tape() override { return tape_; }

 private:
  void finish(LocalOutput out) {
    const ProcessorId p = id();
    auto& slot = engine_->outputs_[static_cast<std::size_t>(p)];
    if (slot.has_value()) throw std::logic_error("strategy terminated twice");
    slot = out;
    engine_->terminated_[static_cast<std::size_t>(p)] = 1;
    engine_->gap_frozen_ = true;
    engine_->unmark_ready(p);
    engine_->inbox_[static_cast<std::size_t>(p)].clear();
    if (engine_->transcript_) {
      engine_->transcript_->decision(static_cast<std::uint64_t>(p), out.aborted, out.value);
    }
  }

  RingEngine* engine_;
  RandomTape tape_;
};

RingEngine::RingEngine(int n, std::uint64_t trial_seed, EngineOptions options)
    : n_(n),
      trial_seed_(trial_seed),
      step_limit_(options.step_limit != 0
                      ? options.step_limit
                      : 8ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) +
                            1024),
      scheduler_kind_(options.scheduler_kind),
      scheduler_(std::move(options.scheduler)),
      observer_(std::move(options.observer)),
      sched_rng_(trial_seed) {
  if (n_ < 2) throw std::invalid_argument("ring needs at least 2 processors");
  contexts_.reserve(static_cast<std::size_t>(n_));
  for (ProcessorId p = 0; p < n_; ++p) contexts_.emplace_back(*this, p, trial_seed);
  inbox_.resize(static_cast<std::size_t>(n_));
  reset(trial_seed);
}

RingEngine::~RingEngine() = default;

void RingEngine::reset(std::uint64_t trial_seed) {
  trial_seed_ = trial_seed;
  strategies_ = {};
  for (Context& context : contexts_) context.reseed(trial_seed);
  for (auto& box : inbox_) box.clear();
  outputs_.assign(static_cast<std::size_t>(n_), std::nullopt);
  terminated_.assign(static_cast<std::size_t>(n_), 0);
  ready_.resize(static_cast<std::size_t>(n_));
  ready_count_ = 0;
  ready_pos_.assign(static_cast<std::size_t>(n_), -1);
  stats_.sent.assign(static_cast<std::size_t>(n_), 0);
  stats_.received.assign(static_cast<std::size_t>(n_), 0);
  stats_.deliveries = 0;
  stats_.total_sent = 0;
  stats_.step_limit_hit = false;
  stats_.max_sync_gap = 0;
  sent_freq_.assign(1, static_cast<std::uint64_t>(n_));
  min_sent_ = 0;
  max_sent_ = 0;
  gap_frozen_ = false;

  // Restart the built-in schedule exactly as make_scheduler(kind, n, seed)
  // would build it, so a reused engine and a fresh one agree bit-for-bit.
  rr_cursor_ = 0;
  switch (scheduler_kind_) {
    case SchedulerKind::kRoundRobin:
      break;
    case SchedulerKind::kRandom:
      sched_rng_ = Xoshiro256(trial_seed);
      break;
    case SchedulerKind::kPriority:
      fill_priority_permutation(priority_, n_, trial_seed);
      break;
  }
  armed_ = true;
}

ProcessorId RingEngine::pick_priority() const {
  ProcessorId best = ready_[0];
  for (std::size_t i = 1; i < ready_count_; ++i) {
    const ProcessorId p = ready_[i];
    if (priority_[static_cast<std::size_t>(p)] < priority_[static_cast<std::size_t>(best)]) {
      best = p;
    }
  }
  return best;
}

template <RingEngine::PickRule kRule>
ProcessorId RingEngine::pick_next() {
  if constexpr (kRule == PickRule::kRoundRobin) {
    // Wrapping cursor instead of cursor % size: the division dominated the
    // pick on the hot path.  Still a fair oblivious rotation (every ready
    // processor is served within |ready| steps of becoming ready).
    if (rr_cursor_ >= ready_count_) rr_cursor_ = 0;
    return ready_[rr_cursor_++];
  } else if constexpr (kRule == PickRule::kRandom) {
    return ready_[sched_rng_.below(ready_count_)];
  } else if constexpr (kRule == PickRule::kPriority) {
    return pick_priority();
  } else {
    return scheduler_->pick(std::span<const ProcessorId>(ready_.data(), ready_count_));
  }
}

template <RingEngine::PickRule kRule, bool kHooks>
void RingEngine::deliver_all() {
  while (ready_count_ != 0) {
    if (stats_.deliveries >= step_limit_) [[unlikely]] {
      stats_.step_limit_hit = true;
      break;
    }
    const ProcessorId p = pick_next<kRule>();
    const std::size_t i = static_cast<std::size_t>(p);
    auto& box = inbox_[i];
    assert(!box.empty());
    const Value v = box.pop_front();
    if (box.empty()) unmark_ready(p);
    ++stats_.received[i];
    ++stats_.deliveries;
    if constexpr (kHooks) {
      if (transcript_) transcript_->delivery(stats_.deliveries, static_cast<std::uint64_t>(p), v);
      if (observer_) {
        observer_(stats_.deliveries, p, v, std::span<const std::uint64_t>(stats_.sent));
      }
    }
    strategies_[i]->on_receive(contexts_[i], v);
  }
}

template <RingEngine::PickRule kRule>
void RingEngine::deliver(bool hooks) {
  if (hooks) {
    deliver_all<kRule, true>();
  } else {
    deliver_all<kRule, false>();
  }
}

Outcome RingEngine::run(std::span<RingStrategy* const> strategies) {
  if (static_cast<int>(strategies.size()) != n_) {
    throw std::invalid_argument("strategy count must equal ring size");
  }
  if (!armed_) reset(trial_seed_);  // re-running without reset replays the seed
  armed_ = false;
  strategies_ = strategies;

  // Wake-up phase: every processor initializes; only strategies that choose
  // to send do so (honest protocols: origin only).
  for (ProcessorId p = 0; p < n_; ++p) {
    if (!terminated_[static_cast<std::size_t>(p)]) {
      strategies_[static_cast<std::size_t>(p)]->on_init(
          contexts_[static_cast<std::size_t>(p)]);
    }
  }

  // The schedule and the hooks are fixed for the run: resolve them once.
  const bool hooks = transcript_ != nullptr || static_cast<bool>(observer_);
  if (scheduler_) {
    deliver<PickRule::kCustom>(hooks);
  } else {
    switch (scheduler_kind_) {
      case SchedulerKind::kRoundRobin:
        deliver<PickRule::kRoundRobin>(hooks);
        break;
      case SchedulerKind::kRandom:
        deliver<PickRule::kRandom>(hooks);
        break;
      case SchedulerKind::kPriority:
        deliver<PickRule::kPriority>(hooks);
        break;
    }
  }

  return aggregate_outcome(std::span<const std::optional<LocalOutput>>(outputs_),
                           static_cast<std::size_t>(n_));
}

}  // namespace fle
