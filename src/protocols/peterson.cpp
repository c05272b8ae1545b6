#include "protocols/peterson.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/rng.h"

namespace fle {

namespace {

/// Temp ids live in [0, n); announcements are n + leader_position.
class PetersonStrategy final : public RingStrategy {
 public:
  PetersonStrategy(Value logical_id, int n) : temp_(logical_id), n_(n) {}

  void on_init(RingContext& ctx) override {
    ctx.send(temp_);  // phase start: active processors launch their temp id
  }

  void on_receive(RingContext& ctx, Value v) override {
    if (done_) return;
    const Value announce_base = static_cast<Value>(n_);
    if (v >= announce_base) {
      const Value leader = v - announce_base;
      if (!detector_) ctx.send(v);
      ctx.terminate(leader);
      done_ = true;
      return;
    }
    if (!active_) {
      ctx.send(v);  // relays forward everything
      return;
    }
    if (awaiting_second_) {
      // v is t2, the second-nearest active predecessor's temp id.
      if (t1_ > temp_ && t1_ > v) {
        temp_ = t1_;  // survive as the holder of the local maximum
      } else {
        active_ = false;
      }
      awaiting_second_ = false;
      if (active_) ctx.send(temp_);  // next phase
      return;
    }
    // v is t1, the nearest active predecessor's temp id.
    if (v == temp_) {
      // Our temp id circulated through relays only: we are the last active.
      detector_ = true;
      ctx.send(announce_base + static_cast<Value>(ctx.id()));
      return;
    }
    t1_ = v;
    ctx.send(v);  // pass t1 along so our successor sees it as its t2
    awaiting_second_ = true;
  }

 private:
  Value temp_;
  int n_;
  Value t1_ = 0;
  bool awaiting_second_ = false;
  bool active_ = true;
  bool detector_ = false;
  bool done_ = false;
};

}  // namespace

PetersonProtocol::PetersonProtocol(std::vector<Value> logical_ids)
    : logical_ids_(std::move(logical_ids)) {
  std::vector<Value> check = logical_ids_;
  std::sort(check.begin(), check.end());
  for (std::size_t i = 0; i < check.size(); ++i) {
    if (check[i] != static_cast<Value>(i)) {
      throw std::invalid_argument("logical ids must be a permutation of 0..n-1");
    }
  }
}

PetersonProtocol PetersonProtocol::random(int n, std::uint64_t seed) {
  std::vector<Value> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), Value{0});
  Xoshiro256 rng(seed);
  std::shuffle(ids.begin(), ids.end(), rng);
  return PetersonProtocol(std::move(ids));
}

RingStrategy* PetersonProtocol::emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                 int n) const {
  if (static_cast<int>(logical_ids_.size()) != n) {
    throw std::invalid_argument("ring size mismatch with logical id table");
  }
  return arena.emplace<PetersonStrategy>(logical_ids_[static_cast<std::size_t>(id)], n);
}

}  // namespace fle
