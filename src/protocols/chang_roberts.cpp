#include "protocols/chang_roberts.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/rng.h"

namespace fle {

namespace {

/// Candidate ids live in [0, n); announcements are n + leader_position.
class ChangRobertsStrategy final : public RingStrategy {
 public:
  ChangRobertsStrategy(Value logical_id, int n) : lid_(logical_id), n_(n) {}

  void on_init(RingContext& ctx) override { ctx.send(lid_); }

  void on_receive(RingContext& ctx, Value v) override {
    if (done_) return;
    const Value announce_base = static_cast<Value>(n_);
    if (v >= announce_base) {
      // Leader announcement circulating.
      const Value leader = v - announce_base;
      if (detector_) {
        // Our own announcement returned; everybody has been informed.
        ctx.terminate(leader);
      } else {
        ctx.send(v);
        ctx.terminate(leader);
      }
      done_ = true;
      return;
    }
    if (v > lid_) {
      ctx.send(v);  // bigger candidate passes through; we are out
    } else if (v == lid_) {
      // Our id survived a full circulation: we hold the maximum.
      detector_ = true;
      ctx.send(announce_base + static_cast<Value>(ctx.id()));
    }
    // Smaller candidates are swallowed.
  }

 private:
  Value lid_;
  int n_;
  bool detector_ = false;
  bool done_ = false;
};

}  // namespace

ChangRobertsProtocol::ChangRobertsProtocol(std::vector<Value> logical_ids)
    : logical_ids_(std::move(logical_ids)) {
  std::vector<Value> check = logical_ids_;
  std::sort(check.begin(), check.end());
  for (std::size_t i = 0; i < check.size(); ++i) {
    if (check[i] != static_cast<Value>(i)) {
      throw std::invalid_argument("logical ids must be a permutation of 0..n-1");
    }
  }
}

ChangRobertsProtocol ChangRobertsProtocol::random(int n, std::uint64_t seed) {
  std::vector<Value> ids(static_cast<std::size_t>(n));
  shuffled_ids(ids, seed);
  return ChangRobertsProtocol(std::move(ids));
}

ProcessorId ChangRobertsProtocol::expected_winner() const {
  const auto it = std::max_element(logical_ids_.begin(), logical_ids_.end());
  return static_cast<ProcessorId>(it - logical_ids_.begin());
}

RingStrategy* ChangRobertsProtocol::emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                     int n) const {
  if (static_cast<int>(logical_ids_.size()) != n) {
    throw std::invalid_argument("ring size mismatch with logical id table");
  }
  return arena.emplace<ChangRobertsStrategy>(logical_ids_[static_cast<std::size_t>(id)], n);
}

}  // namespace fle
