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

// ---------------------------------------------------------------------------
// Sync-runtime trial lanes.  Each kernel replicates its scalar strategy's
// on_round handler exactly (src/protocols/sync_lead.cpp), with strategy
// fields mapped onto the SoA register file; the trial loop replicates
// SyncEngine::run event for event.

const char* to_string(SyncLaneKernelId kernel) {
  switch (kernel) {
    case SyncLaneKernelId::kSyncBroadcast:
      return "sync-broadcast-lead";
    case SyncLaneKernelId::kSyncRing:
      return "sync-ring-lead";
  }
  return "?";
}

/// sync-broadcast-lead: reg_a = d_.  Round 1 broadcasts the draw; round 2
/// validates exactly one in-range value per peer (ascending senders) and
/// terminates with the mod-n sum.
struct SyncLaneEngine::BroadcastKernel {
  static void on_round(SyncLaneEngine& e, ProcessorId p, int round, std::uint64_t seed,
                       const ProcessorId* from, const Value* val, std::size_t count,
                       ExecutionTranscript* transcript) {
    const std::size_t i = static_cast<std::size_t>(p);
    const Value n = static_cast<Value>(e.n_);
    if (round == 1) {
      const Value d = RandomTape(seed, p).uniform(n);
      e.reg_a_[i] = d;
      for (ProcessorId to = 0; to < e.n_; ++to) {
        if (to != p) e.sync_send(to, p, d);
      }
      return;
    }
    if (static_cast<int>(count) != e.n_ - 1) {
      return e.sync_finish(p, true, 0, transcript);
    }
    Value sum = e.reg_a_[i] % n;
    ProcessorId expected = 0;
    for (std::size_t m = 0; m < count; ++m) {
      if (expected == p) ++expected;
      if (from[m] != expected || val[m] >= n) {
        return e.sync_finish(p, true, 0, transcript);
      }
      sum = (sum + val[m]) % n;
      ++expected;
    }
    e.sync_finish(p, false, sum, transcript);
  }
};

/// sync-ring-lead: reg_a = d_, reg_b = sum_.  n-1 forwarding rounds, then
/// terminate with the accumulated sum.
struct SyncLaneEngine::RingKernel {
  static void on_round(SyncLaneEngine& e, ProcessorId p, int round, std::uint64_t seed,
                       const ProcessorId* from, const Value* val, std::size_t count,
                       ExecutionTranscript* transcript) {
    const std::size_t i = static_cast<std::size_t>(p);
    const Value nv = static_cast<Value>(e.n_);
    const ProcessorId succ = ring_succ(p, e.n_);
    const ProcessorId pred = ring_pred(p, e.n_);
    if (round == 1) {
      const Value d = RandomTape(seed, p).uniform(nv);
      e.reg_a_[i] = d;
      e.reg_b_[i] = d;
      e.sync_send(succ, p, d);
      return;
    }
    if (count != 1 || from[0] != pred || val[0] >= nv) {
      return e.sync_finish(p, true, 0, transcript);
    }
    const Value v = val[0];
    e.reg_b_[i] = (e.reg_b_[i] + v) % nv;
    if (round < e.n_) {
      e.sync_send(succ, p, v);
      return;
    }
    e.sync_finish(p, false, e.reg_b_[i], transcript);
  }
};

SyncLaneEngine::SyncLaneEngine(int n, SyncLaneKernelId kernel, SyncLaneEngineOptions options)
    : n_(n), kernel_(kernel), round_limit_(options.round_limit) {
  if (n_ < 2) throw std::invalid_argument("network needs at least 2 processors");
  if (round_limit_ == 0) {
    // The kernel protocols' round_bound(n) (protocols/sync_lead.h), same
    // default fill_sync_job applies on the scalar path.
    round_limit_ = kernel_ == SyncLaneKernelId::kSyncBroadcast ? 4 : n_ + 3;
  }
  const std::size_t cells = static_cast<std::size_t>(n_);
  reg_a_.resize(cells);
  reg_b_.resize(cells);
  terminated_.resize(cells);
  out_has_.resize(cells);
  out_aborted_.resize(cells);
  out_value_.resize(cells);
  const std::size_t strip = static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
  for (int b = 0; b < 2; ++b) {
    box_from_[b].resize(strip);
    box_val_[b].resize(strip);
    box_count_[b].assign(static_cast<std::size_t>(n_), 0);
  }
}

void SyncLaneEngine::sync_send(ProcessorId to, ProcessorId from, Value v) {
  // Sends to terminated destinations are counted but dropped, exactly as
  // the scalar SyncEngine::Context::send does.
  ++total_sent_;
  if (terminated_[static_cast<std::size_t>(to)]) return;
  const int next = 1 - cur_;
  auto& count = box_count_[next][static_cast<std::size_t>(to)];
  const std::size_t at = static_cast<std::size_t>(to) * static_cast<std::size_t>(n_) + count;
  box_from_[next][at] = from;
  box_val_[next][at] = v;
  ++count;
}

void SyncLaneEngine::sync_finish(ProcessorId p, bool aborted, Value value,
                                 ExecutionTranscript* transcript) {
  const std::size_t i = static_cast<std::size_t>(p);
  out_has_[i] = 1;
  out_aborted_[i] = aborted ? 1 : 0;
  out_value_[i] = value;
  terminated_[i] = 1;
  if (transcript) {
    transcript->decision(static_cast<std::uint64_t>(p), aborted, value);
  }
}

template <typename Kernel>
void SyncLaneEngine::run_trial(std::uint64_t seed, ExecutionTranscript* transcript,
                               LaneTrialResult& out) {
  const std::size_t n = static_cast<std::size_t>(n_);
  for (std::size_t i = 0; i < n; ++i) {
    reg_a_[i] = 0;
    reg_b_[i] = 0;
    terminated_[i] = 0;
    out_has_[i] = 0;
    out_aborted_[i] = 0;
    out_value_[i] = 0;
  }
  for (int b = 0; b < 2; ++b) {
    std::fill(box_count_[b].begin(), box_count_[b].end(), 0);
  }
  cur_ = 0;
  total_sent_ = 0;
  int quiet_rounds = 0;
  int rounds = 0;
  bool limit_hit = false;

  for (int round = 1;; ++round) {
    if (round > round_limit_) {
      limit_hit = true;
      break;
    }
    rounds = round;
    // Collect this round's deliveries (sent last round) into the round
    // view; the vacated buffer collects this round's sends for the next.
    cur_ = 1 - cur_;
    std::fill(box_count_[1 - cur_].begin(), box_count_[1 - cur_].end(), 0);
    const auto& counts = box_count_[cur_];
    const ProcessorId* froms = box_from_[cur_].data();
    const Value* vals = box_val_[cur_].data();
    if (transcript) {
      std::uint64_t delivered = 0;
      for (ProcessorId p = 0; p < n_; ++p) {
        if (!terminated_[static_cast<std::size_t>(p)]) {
          delivered += counts[static_cast<std::size_t>(p)];
        }
      }
      transcript->phase(static_cast<std::uint64_t>(round), delivered);
    }
    bool anyone_alive = false;
    for (ProcessorId p = 0; p < n_; ++p) {
      if (terminated_[static_cast<std::size_t>(p)]) continue;
      anyone_alive = true;
      const std::size_t strip = static_cast<std::size_t>(p) * static_cast<std::size_t>(n_);
      const std::size_t count = counts[static_cast<std::size_t>(p)];
      // The scalar engine sorts each inbox by sender before delivery; lane
      // sends are generated in ascending processor order within a round,
      // so the strip already IS the sorted view.
      if (transcript) {
        for (std::size_t m = 0; m < count; ++m) {
          const Value payload = vals[strip + m];
          const std::uint64_t fold =
              mix64(static_cast<std::uint64_t>(froms[strip + m])) ^
              transcript_fold(std::span<const std::uint64_t>(&payload, 1));
          transcript->delivery(static_cast<std::uint64_t>(round),
                               static_cast<std::uint64_t>(p), fold);
        }
      }
      Kernel::on_round(*this, p, round, seed, froms + strip, vals + strip, count, transcript);
    }
    if (!anyone_alive) break;
    // Quiescence: nobody alive will ever receive anything again (one grace
    // round, as in the scalar loop).
    bool any_pending = false;
    for (ProcessorId p = 0; p < n_; ++p) {
      if (box_count_[1 - cur_][static_cast<std::size_t>(p)] != 0) any_pending = true;
    }
    if (!any_pending && round > 1) {
      if (quiet_rounds++ >= 1) break;
    } else {
      quiet_rounds = 0;
    }
  }

  out.messages = total_sent_;
  out.max_sync_gap = 0;
  out.rounds = static_cast<std::uint64_t>(rounds);
  out.step_limit_hit = limit_hit;
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
  out.outcome = (failed || !agreed) ? Outcome::fail() : Outcome::elected(*agreed);
}

template <typename Kernel>
void SyncLaneEngine::run_window_impl(std::span<const std::uint64_t> seeds,
                                     std::span<LaneTrialResult> out,
                                     std::span<ExecutionTranscript* const> transcripts) {
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    run_trial<Kernel>(seeds[t], transcripts.empty() ? nullptr : transcripts[t], out[t]);
  }
}

void SyncLaneEngine::run_window(std::span<const std::uint64_t> seeds,
                                std::span<LaneTrialResult> out,
                                std::span<ExecutionTranscript* const> transcripts) {
  if (out.size() < seeds.size()) {
    throw std::invalid_argument("sync lane engine: result span smaller than seed span");
  }
  if (!transcripts.empty() && transcripts.size() < seeds.size()) {
    throw std::invalid_argument("sync lane engine: transcript span smaller than seed span");
  }
  switch (kernel_) {
    case SyncLaneKernelId::kSyncBroadcast:
      run_window_impl<BroadcastKernel>(seeds, out, transcripts);
      break;
    case SyncLaneKernelId::kSyncRing:
      run_window_impl<RingKernel>(seeds, out, transcripts);
      break;
  }
}

}  // namespace fle
