#include "sim/graph_engine.h"

#include <cassert>
#include <stdexcept>

namespace fle {

class GraphEngine::Context final : public GraphContext {
 public:
  Context(GraphEngine& engine, ProcessorId id, std::uint64_t trial_seed)
      : engine_(&engine), id_(id), tape_(trial_seed, id) {}

  void reseed(std::uint64_t trial_seed) { tape_ = RandomTape(trial_seed, id_); }

  void send(ProcessorId to, GraphMessage message) override {
    if (engine_->terminated_[static_cast<std::size_t>(id_)]) {
      throw std::logic_error("strategy sent after terminating");
    }
    if (to < 0 || to >= engine_->n_ || to == id_) {
      throw std::invalid_argument("invalid destination");
    }
    engine_->enqueue(id_, to, std::move(message));
  }

  void terminate(Value output) override { finish(LocalOutput{false, output}); }
  void abort() override { finish(LocalOutput{true, 0}); }

  ProcessorId id() const override { return id_; }
  int network_size() const override { return engine_->n_; }
  RandomTape& tape() override { return tape_; }

 private:
  void finish(LocalOutput out) {
    auto& slot = engine_->outputs_[static_cast<std::size_t>(id_)];
    if (slot.has_value()) throw std::logic_error("strategy terminated twice");
    slot = out;
    engine_->terminated_[static_cast<std::size_t>(id_)] = true;
    if (engine_->transcript_) {
      engine_->transcript_->decision(static_cast<std::uint64_t>(id_), out.aborted, out.value);
    }
    // Drop all pending traffic towards a terminated processor.
    for (ProcessorId from = 0; from < engine_->n_; ++from) {
      if (from == id_) continue;
      const int link = engine_->link_index(from, id_);
      engine_->links_[static_cast<std::size_t>(link)].clear();
      engine_->unmark_ready(link);
    }
  }

  GraphEngine* engine_;
  ProcessorId id_;
  RandomTape tape_;
};

GraphEngine::GraphEngine(int n, std::uint64_t trial_seed, GraphEngineOptions options)
    : n_(n),
      trial_seed_(trial_seed),
      options_(std::move(options)),
      step_limit_(options_.step_limit != 0
                      ? options_.step_limit
                      : 16ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) +
                            4096),
      schedule_rng_(0) {
  if (n_ < 2) throw std::invalid_argument("network needs at least 2 processors");
  if (options_.schedule == SchedulerKind::kPriority) {
    throw std::invalid_argument("the priority scheduler is ring-only");
  }
  contexts_.reserve(static_cast<std::size_t>(n_));
  for (ProcessorId p = 0; p < n_; ++p) contexts_.emplace_back(*this, p, trial_seed);
  links_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  reset(trial_seed);
}

GraphEngine::~GraphEngine() = default;

void GraphEngine::reset(std::uint64_t trial_seed) {
  trial_seed_ = trial_seed;
  strategies_ = {};
  for (Context& context : contexts_) context.reseed(trial_seed);
  for (auto& link : links_) link.clear();
  outputs_.assign(static_cast<std::size_t>(n_), std::nullopt);
  terminated_.assign(static_cast<std::size_t>(n_), false);
  ready_.clear();
  ready_pos_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), -1);
  stats_.sent.assign(static_cast<std::size_t>(n_), 0);
  stats_.received.assign(static_cast<std::size_t>(n_), 0);
  stats_.total_sent = 0;
  stats_.deliveries = 0;
  stats_.step_limit_hit = false;
  schedule_rng_ = Xoshiro256(mix64(trial_seed ^ 0x5ca1'ab1e'0000'0001ull));
  rr_cursor_ = 0;
  armed_ = true;
}

void GraphEngine::mark_ready(int link) {
  auto& pos = ready_pos_[static_cast<std::size_t>(link)];
  if (pos >= 0) return;
  pos = static_cast<int>(ready_.size());
  ready_.push_back(link);
}

void GraphEngine::unmark_ready(int link) {
  auto& pos = ready_pos_[static_cast<std::size_t>(link)];
  if (pos < 0) return;
  const int last = ready_.back();
  ready_[static_cast<std::size_t>(pos)] = last;
  ready_pos_[static_cast<std::size_t>(last)] = pos;
  ready_.pop_back();
  pos = -1;
}

void GraphEngine::enqueue(ProcessorId from, ProcessorId to, GraphMessage m) {
  ++stats_.total_sent;
  ++stats_.sent[static_cast<std::size_t>(from)];
  if (terminated_[static_cast<std::size_t>(to)]) return;  // receiver gone
  const int link = link_index(from, to);
  links_[static_cast<std::size_t>(link)].push_back(std::move(m));
  mark_ready(link);
}

void GraphEngine::deliver(int link) {
  auto& q = links_[static_cast<std::size_t>(link)];
  assert(!q.empty());
  const GraphMessage m = q.pop_front();
  if (q.empty()) unmark_ready(link);
  const ProcessorId from = link / n_;
  const ProcessorId to = link % n_;
  ++stats_.received[static_cast<std::size_t>(to)];
  ++stats_.deliveries;
  if (transcript_) {
    transcript_->delivery(stats_.deliveries, static_cast<std::uint64_t>(link),
                          transcript_fold(std::span<const std::uint64_t>(m)));
  }
  strategies_[static_cast<std::size_t>(to)]->on_receive(contexts_[static_cast<std::size_t>(to)],
                                                        from, m);
}

Outcome GraphEngine::run(std::span<GraphStrategy* const> strategies) {
  if (static_cast<int>(strategies.size()) != n_) {
    throw std::invalid_argument("strategy count must equal network size");
  }
  if (!armed_) reset(trial_seed_);
  armed_ = false;
  strategies_ = strategies;

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
    const std::size_t pick = options_.schedule == SchedulerKind::kRandom
                                 ? schedule_rng_.below(ready_.size())
                                 : static_cast<std::size_t>(rr_cursor_++ % ready_.size());
    deliver(ready_[pick]);
  }

  return aggregate_outcome(std::span<const std::optional<LocalOutput>>(outputs_),
                           static_cast<std::size_t>(n_));
}

}  // namespace fle
