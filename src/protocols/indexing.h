#pragma once
// Indexing phase for non-consecutive ids (paper Appendix G).
//
// PhaseAsyncLead's validator schedule assumes processors know their ring
// position.  Appendix G removes that assumption with a counter phase: the
// origin sends the value 1; every processor takes the incoming counter as
// its position, forwards counter+1, and the origin swallows the counter
// when it returns as n.  After the phase every processor runs the wrapped
// protocol using its learned position (the wrapped origin is the physical
// origin).  Elected outputs are positions, identical to running the inner
// protocol directly.

#include <memory>

#include "sim/strategy.h"

namespace fle {

class IndexingProtocol final : public RingProtocol {
 public:
  /// Wraps `inner`; inner strategies are built with the learned index.
  explicit IndexingProtocol(std::shared_ptr<const RingProtocol> inner)
      : inner_(std::move(inner)) {}

  RingStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "Indexing+inner"; }
  std::uint64_t honest_message_bound(int n) const override {
    return inner_->honest_message_bound(n) + static_cast<std::uint64_t>(n);
  }

 private:
  std::shared_ptr<const RingProtocol> inner_;
};

}  // namespace fle
