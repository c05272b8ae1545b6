#include "sim/threaded_runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace fle {

namespace {

/// Blocking SPSC-ish FIFO channel (one writer: ring predecessor; one reader:
/// owner thread).  `drain` mode drops all traffic once the owner terminates.
class Channel {
 public:
  /// Returns false if the value was dropped (receiver terminated).
  bool push(Value v) {
    std::lock_guard lock(mutex_);
    if (draining_) return false;
    queue_.push_back(v);
    cv_.notify_one();
    return true;
  }

  /// Blocks until a value, stop, or drain.  Returns nullopt on stop.
  std::optional<Value> pop(const std::atomic<bool>& stop, std::atomic<int>& waiting) {
    std::unique_lock lock(mutex_);
    if (queue_.empty()) {
      waiting.fetch_add(1, std::memory_order_seq_cst);
      cv_.wait(lock, [&] { return !queue_.empty() || stop.load(std::memory_order_seq_cst); });
      waiting.fetch_sub(1, std::memory_order_seq_cst);
    }
    if (queue_.empty()) return std::nullopt;
    const Value v = queue_.front();
    queue_.pop_front();
    return v;
  }

  /// Number of queued values dropped by entering drain mode.
  std::size_t start_draining() {
    std::lock_guard lock(mutex_);
    draining_ = true;
    const std::size_t dropped = queue_.size();
    queue_.clear();
    return dropped;
  }

  void wake() {
    std::lock_guard lock(mutex_);
    cv_.notify_all();
  }

  std::size_t size() {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Value> queue_;
  bool draining_ = false;
};

}  // namespace

struct ThreadedRuntime::Impl {
  std::vector<Channel> channels;           // channels[p]: inbox of processor p
  std::atomic<bool> stop{false};
  std::atomic<int> waiting{0};             // threads blocked on empty channels
  std::atomic<int> live{0};                // threads still running
  std::atomic<std::int64_t> in_flight{0};  // queued, undelivered messages
  std::atomic<std::uint64_t> total_sent{0};
  std::atomic<bool> send_limit_hit{false};
  std::vector<std::atomic<std::uint64_t>> sent;
  std::vector<std::atomic<std::uint64_t>> received;

  explicit Impl(int n) : channels(static_cast<std::size_t>(n)),
                         sent(static_cast<std::size_t>(n)),
                         received(static_cast<std::size_t>(n)) {}

  void stop_all() {
    stop.store(true, std::memory_order_seq_cst);
    for (auto& ch : channels) ch.wake();
  }
};

namespace {

/// Per-thread context bound to one processor.
class ThreadContext final : public RingContext {
 public:
  ThreadContext(ThreadedRuntime::Impl& impl, ProcessorId id, int n, std::uint64_t trial_seed,
                std::uint64_t send_limit, std::optional<LocalOutput>& output_slot)
      : RingContext(id, n),
        impl_(impl),
        send_limit_(send_limit),
        tape_(trial_seed, id),
        output_(output_slot) {}

  void send(Value v) override {
    if (terminated_) throw std::logic_error("strategy sent after terminating");
    const std::uint64_t total =
        impl_.total_sent.fetch_add(1, std::memory_order_relaxed) + 1;
    if (total > send_limit_) {
      impl_.send_limit_hit.store(true, std::memory_order_relaxed);
      impl_.stop_all();
      return;  // message dropped; execution is being torn down as FAIL
    }
    impl_.sent[static_cast<std::size_t>(id())].fetch_add(1, std::memory_order_relaxed);
    impl_.in_flight.fetch_add(1, std::memory_order_seq_cst);
    if (!impl_.channels[static_cast<std::size_t>(ring_succ(id(), ring_size()))].push(v)) {
      impl_.in_flight.fetch_sub(1, std::memory_order_seq_cst);  // dropped
    }
  }

  void terminate(Value output) override { finish(LocalOutput{false, output}); }
  void abort() override { finish(LocalOutput{true, 0}); }

  RandomTape& tape() override { return tape_; }

  [[nodiscard]] bool terminated() const { return terminated_; }

 private:
  void finish(LocalOutput out) {
    if (terminated_) throw std::logic_error("strategy terminated twice");
    terminated_ = true;
    output_ = out;
    const std::size_t dropped =
        impl_.channels[static_cast<std::size_t>(id())].start_draining();
    if (dropped > 0) {
      impl_.in_flight.fetch_sub(static_cast<std::int64_t>(dropped), std::memory_order_seq_cst);
    }
  }

  ThreadedRuntime::Impl& impl_;
  std::uint64_t send_limit_;
  RandomTape tape_;
  std::optional<LocalOutput>& output_;
  bool terminated_ = false;
};

}  // namespace

ThreadedRuntime::ThreadedRuntime(int n, std::uint64_t trial_seed,
                                 ThreadedRuntimeOptions options)
    : impl_(std::make_unique<Impl>(n)), n_(n), trial_seed_(trial_seed), options_(options) {
  if (n_ < 2) throw std::invalid_argument("ring needs at least 2 processors");
  if (options_.send_limit == 0) {
    options_.send_limit =
        8ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) + 1024;
  }
  if (options_.wall_timeout_ms == 0) options_.wall_timeout_ms = 60000;
}

ThreadedRuntime::~ThreadedRuntime() = default;

Outcome ThreadedRuntime::run(std::span<RingStrategy* const> strategies) {
  if (static_cast<int>(strategies.size()) != n_) {
    throw std::invalid_argument("strategy count must equal ring size");
  }
  outputs_.assign(static_cast<std::size_t>(n_), std::nullopt);
  impl_->live.store(n_, std::memory_order_seq_cst);

  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(n_));
    for (ProcessorId p = 0; p < n_; ++p) {
      threads.emplace_back([this, p, strategy = strategies[static_cast<std::size_t>(p)]] {
        ThreadContext ctx(*impl_, p, n_, trial_seed_, options_.send_limit,
                          outputs_[static_cast<std::size_t>(p)]);
        strategy->on_init(ctx);
        while (!ctx.terminated() && !impl_->stop.load(std::memory_order_seq_cst)) {
          auto v = impl_->channels[static_cast<std::size_t>(p)].pop(impl_->stop,
                                                                    impl_->waiting);
          if (!v.has_value()) break;  // stopped
          impl_->in_flight.fetch_sub(1, std::memory_order_seq_cst);
          impl_->received[static_cast<std::size_t>(p)].fetch_add(1,
                                                                 std::memory_order_relaxed);
          strategy->on_receive(ctx, *v);
        }
        impl_->live.fetch_sub(1, std::memory_order_seq_cst);
      });
    }

    // Quiescence / timeout monitor (runs on this thread).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.wall_timeout_ms);
    for (;;) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const int live = impl_->live.load(std::memory_order_seq_cst);
      if (live == 0) break;  // everybody terminated
      if (impl_->stop.load(std::memory_order_seq_cst)) break;
      const int waiting = impl_->waiting.load(std::memory_order_seq_cst);
      const std::int64_t in_flight = impl_->in_flight.load(std::memory_order_seq_cst);
      if (waiting == live && in_flight == 0) {
        // Re-check after a pause to let transient states settle; the
        // condition is stable once true (nobody can produce a message).
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (impl_->waiting.load(std::memory_order_seq_cst) ==
                impl_->live.load(std::memory_order_seq_cst) &&
            impl_->in_flight.load(std::memory_order_seq_cst) == 0 &&
            impl_->live.load(std::memory_order_seq_cst) > 0) {
          stats_.quiesced = true;
          impl_->stop_all();
          break;
        }
      }
      if (std::chrono::steady_clock::now() > deadline) {
        stats_.wall_timeout_hit = true;
        impl_->stop_all();
        break;
      }
    }
    // jthread destructors join all processor threads here.
  }

  stats_.sent.resize(static_cast<std::size_t>(n_));
  stats_.received.resize(static_cast<std::size_t>(n_));
  for (int p = 0; p < n_; ++p) {
    stats_.sent[static_cast<std::size_t>(p)] =
        impl_->sent[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
    stats_.received[static_cast<std::size_t>(p)] =
        impl_->received[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  }
  // The shared counter also counts the over-limit sends other threads
  // attempted before they saw stop; report accepted sends only.
  stats_.total_sent =
      std::min(impl_->total_sent.load(std::memory_order_relaxed), options_.send_limit);
  stats_.send_limit_hit = impl_->send_limit_hit.load(std::memory_order_relaxed);

  return aggregate_outcome(std::span<const std::optional<LocalOutput>>(outputs_),
                           static_cast<std::size_t>(n_));
}

}  // namespace fle
