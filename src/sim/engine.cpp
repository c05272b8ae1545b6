#include "sim/engine.h"

#include <cassert>
#include <stdexcept>

namespace fle {

/// Runtime-facing processor context; forwards into the engine.  Stored by
/// value in a contiguous vector and reused across trials (reseed() swaps in
/// the new trial's tape without reconstructing the object).
class RingEngine::Context final : public RingContext {
 public:
  Context(RingEngine& engine, ProcessorId id, std::uint64_t trial_seed)
      : engine_(&engine), id_(id), tape_(trial_seed, id) {}

  void reseed(std::uint64_t trial_seed) { tape_ = RandomTape(trial_seed, id_); }

  void send(Value v) override {
    if (engine_->terminated_[static_cast<std::size_t>(id_)]) {
      throw std::logic_error("strategy sent after terminating");
    }
    engine_->enqueue(id_, v);
  }

  void terminate(Value output) override { finish(LocalOutput{false, output}); }
  void abort() override { finish(LocalOutput{true, 0}); }

  ProcessorId id() const override { return id_; }
  int ring_size() const override { return engine_->n_; }
  RandomTape& tape() override { return tape_; }

 private:
  void finish(LocalOutput out) {
    auto& slot = engine_->outputs_[static_cast<std::size_t>(id_)];
    if (slot.has_value()) throw std::logic_error("strategy terminated twice");
    slot = out;
    engine_->terminated_[static_cast<std::size_t>(id_)] = true;
    engine_->gap_frozen_ = true;
    engine_->unmark_ready(id_);
    engine_->inbox_[static_cast<std::size_t>(id_)].clear();
    if (engine_->transcript_) {
      engine_->transcript_->decision(static_cast<std::uint64_t>(id_), out.aborted, out.value);
    }
  }

  RingEngine* engine_;
  ProcessorId id_;
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
  terminated_.assign(static_cast<std::size_t>(n_), false);
  ready_.clear();
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

void RingEngine::mark_ready(ProcessorId p) {
  auto& pos = ready_pos_[static_cast<std::size_t>(p)];
  if (pos >= 0) return;
  pos = static_cast<int>(ready_.size());
  ready_.push_back(p);
}

void RingEngine::unmark_ready(ProcessorId p) {
  auto& pos = ready_pos_[static_cast<std::size_t>(p)];
  if (pos < 0) return;
  const ProcessorId last = ready_.back();
  ready_[static_cast<std::size_t>(pos)] = last;
  ready_pos_[static_cast<std::size_t>(last)] = pos;
  ready_.pop_back();
  pos = -1;
}

ProcessorId RingEngine::pick_next() {
  if (scheduler_) return scheduler_->pick(std::span<const ProcessorId>(ready_));
  switch (scheduler_kind_) {
    case SchedulerKind::kRoundRobin:
      break;  // the fast path, below
    case SchedulerKind::kRandom:
      return ready_[sched_rng_.below(ready_.size())];
    case SchedulerKind::kPriority: {
      ProcessorId best = ready_[0];
      for (const ProcessorId p : ready_) {
        if (priority_[static_cast<std::size_t>(p)] <
            priority_[static_cast<std::size_t>(best)]) {
          best = p;
        }
      }
      return best;
    }
  }
  // Wrapping cursor instead of cursor % size: the division dominated the
  // pick on the hot path.  Still a fair oblivious rotation (every ready
  // processor is served within |ready| steps of becoming ready).
  if (rr_cursor_ >= ready_.size()) rr_cursor_ = 0;
  return ready_[rr_cursor_++];
}

void RingEngine::enqueue(ProcessorId from, Value v) {
  // ring_succ's modulo is a division on the per-send hot path; branch instead.
  ProcessorId to = from + 1;
  if (to == n_) to = 0;
  ++stats_.total_sent;
  auto& sent = stats_.sent[static_cast<std::size_t>(from)];

  if (!gap_frozen_) {
    // Move `from` one level up in the sent-count histogram.
    assert(sent < sent_freq_.size() && sent_freq_[sent] > 0);
    --sent_freq_[sent];
    if (sent + 1 >= sent_freq_.size()) sent_freq_.resize(sent + 2, 0);
    ++sent_freq_[sent + 1];
    if (sent + 1 > max_sent_) max_sent_ = sent + 1;
    while (sent_freq_[min_sent_] == 0) ++min_sent_;
    const std::uint64_t gap = max_sent_ - min_sent_;
    if (gap > stats_.max_sync_gap) stats_.max_sync_gap = gap;
  }
  ++sent;

  if (!terminated_[static_cast<std::size_t>(to)]) {
    inbox_[static_cast<std::size_t>(to)].push_back(v);
    mark_ready(to);
  }
  // Messages to terminated processors vanish: the receiver ignores them.
}

void RingEngine::deliver_to(ProcessorId p) {
  auto& box = inbox_[static_cast<std::size_t>(p)];
  assert(!box.empty());
  const Value v = box.pop_front();
  if (box.empty()) unmark_ready(p);
  ++stats_.received[static_cast<std::size_t>(p)];
  ++stats_.deliveries;
  if (transcript_) transcript_->delivery(stats_.deliveries, static_cast<std::uint64_t>(p), v);
  if (observer_) {
    observer_(stats_.deliveries, p, v, std::span<const std::uint64_t>(stats_.sent));
  }
  strategies_[static_cast<std::size_t>(p)]->on_receive(contexts_[static_cast<std::size_t>(p)],
                                                       v);
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

  while (!ready_.empty()) {
    if (stats_.deliveries >= step_limit_) {
      stats_.step_limit_hit = true;
      break;
    }
    deliver_to(pick_next());
  }

  return aggregate_outcome(std::span<const std::optional<LocalOutput>>(outputs_),
                           static_cast<std::size_t>(n_));
}

}  // namespace fle
