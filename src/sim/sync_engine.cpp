#include "sim/sync_engine.h"

#include <algorithm>
#include <stdexcept>

namespace fle {

class SyncEngine::Context final : public SyncContext {
 public:
  Context(SyncEngine& engine, ProcessorId id, std::uint64_t trial_seed)
      : engine_(&engine), id_(id), tape_(trial_seed, id) {}

  void reseed(std::uint64_t trial_seed) {
    tape_ = RandomTape(trial_seed, id_);
    round_ = 0;
  }

  void send(ProcessorId to, GraphMessage message) override {
    if (engine_->terminated_[static_cast<std::size_t>(id_)]) {
      throw std::logic_error("strategy sent after terminating");
    }
    if (to < 0 || to >= engine_->n_ || to == id_) {
      throw std::invalid_argument("invalid destination");
    }
    ++engine_->stats_.total_sent;
    if (!engine_->terminated_[static_cast<std::size_t>(to)]) {
      engine_->next_inbox_[static_cast<std::size_t>(to)].push_back({id_, std::move(message)});
    }
  }

  void broadcast(GraphMessage message) override {
    for (ProcessorId to = 0; to < engine_->n_; ++to) {
      if (to != id_) send(to, message);
    }
  }

  void terminate(Value output) override { finish(LocalOutput{false, output}); }
  void abort() override { finish(LocalOutput{true, 0}); }

  ProcessorId id() const override { return id_; }
  int network_size() const override { return engine_->n_; }
  int round() const override { return round_; }
  RandomTape& tape() override { return tape_; }

  void set_round(int r) { round_ = r; }

 private:
  void finish(LocalOutput out) {
    auto& slot = engine_->outputs_[static_cast<std::size_t>(id_)];
    if (slot.has_value()) throw std::logic_error("strategy terminated twice");
    slot = out;
    engine_->terminated_[static_cast<std::size_t>(id_)] = true;
    if (engine_->transcript_) {
      engine_->transcript_->decision(static_cast<std::uint64_t>(id_), out.aborted, out.value);
    }
  }

  SyncEngine* engine_;
  ProcessorId id_;
  RandomTape tape_;
  int round_ = 0;
};

SyncEngine::SyncEngine(int n, std::uint64_t trial_seed, SyncEngineOptions options)
    : n_(n), trial_seed_(trial_seed), options_(options) {
  if (n_ < 2) throw std::invalid_argument("network needs at least 2 processors");
  if (options_.round_limit == 0) options_.round_limit = 4 * n_ + 8;
  contexts_.reserve(static_cast<std::size_t>(n_));
  for (ProcessorId p = 0; p < n_; ++p) contexts_.emplace_back(*this, p, trial_seed);
  next_inbox_.resize(static_cast<std::size_t>(n_));
  round_inbox_.resize(static_cast<std::size_t>(n_));
  reset(trial_seed);
}

SyncEngine::~SyncEngine() = default;

void SyncEngine::reset(std::uint64_t trial_seed) {
  trial_seed_ = trial_seed;
  for (Context& context : contexts_) context.reseed(trial_seed);
  outputs_.assign(static_cast<std::size_t>(n_), std::nullopt);
  terminated_.assign(static_cast<std::size_t>(n_), false);
  for (auto& box : next_inbox_) box.clear();
  for (auto& box : round_inbox_) box.clear();
  quiet_rounds_ = 0;
  stats_.total_sent = 0;
  stats_.rounds = 0;
  stats_.round_limit_hit = false;
  armed_ = true;
}

Outcome SyncEngine::run(std::span<SyncStrategy* const> strategies) {
  if (static_cast<int>(strategies.size()) != n_) {
    throw std::invalid_argument("strategy count must equal network size");
  }
  if (!armed_) reset(trial_seed_);
  armed_ = false;

  for (int round = 1;; ++round) {
    if (round > options_.round_limit) {
      stats_.round_limit_hit = true;
      break;
    }
    stats_.rounds = round;
    // Collect this round's deliveries (sent last round) into the round
    // buffer; the vacated buffers (cleared, capacity kept) collect this
    // round's sends for the next one.
    round_inbox_.swap(next_inbox_);
    for (auto& box : next_inbox_) box.clear();
    if (transcript_) {
      std::uint64_t delivered = 0;
      for (ProcessorId p = 0; p < n_; ++p) {
        if (!terminated_[static_cast<std::size_t>(p)]) {
          delivered += round_inbox_[static_cast<std::size_t>(p)].size();
        }
      }
      transcript_->phase(static_cast<std::uint64_t>(round), delivered);
    }
    bool anyone_alive = false;
    for (ProcessorId p = 0; p < n_; ++p) {
      if (terminated_[static_cast<std::size_t>(p)]) continue;
      anyone_alive = true;
      auto& my_inbox = round_inbox_[static_cast<std::size_t>(p)];
      std::sort(my_inbox.begin(), my_inbox.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      if (transcript_) {
        for (const auto& [from, payload] : my_inbox) {
          // Sender and payload in one fingerprint; the receiver rides in
          // the event's own b slot.
          const std::uint64_t fold =
              mix64(static_cast<std::uint64_t>(from)) ^
              transcript_fold(std::span<const std::uint64_t>(payload));
          transcript_->delivery(static_cast<std::uint64_t>(round),
                                static_cast<std::uint64_t>(p), fold);
        }
      }
      contexts_[static_cast<std::size_t>(p)].set_round(round);
      strategies[static_cast<std::size_t>(p)]->on_round(
          contexts_[static_cast<std::size_t>(p)], my_inbox);
    }
    if (!anyone_alive) break;
    // Quiescence: nobody alive will ever receive anything again.
    bool any_pending = false;
    for (const auto& box : next_inbox_) {
      if (!box.empty()) any_pending = true;
    }
    if (!any_pending && round > 1) {
      // One extra grace round lets strategies that act on empty inboxes
      // (e.g. detecting silence) terminate; a second empty round means the
      // execution can only spin.
      if (quiet_rounds_++ >= 1) break;
    } else {
      quiet_rounds_ = 0;
    }
  }

  return aggregate_outcome(std::span<const std::optional<LocalOutput>>(outputs_),
                           static_cast<std::size_t>(n_));
}

}  // namespace fle
