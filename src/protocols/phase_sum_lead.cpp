#include "protocols/phase_sum_lead.h"

#include <stdexcept>

namespace fle {

PhaseOutputFn PhaseSumLeadProtocol::output_fn() const {
  const Value n = static_cast<Value>(params_.n);
  return [n](std::span<const Value> dval, std::span<const Value> /*vval*/) {
    Value sum = 0;
    for (const Value d : dval) sum = (sum + d) % n;
    return sum;
  };
}

RingStrategy* PhaseSumLeadProtocol::emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                     int n) const {
  if (n != params_.n) throw std::invalid_argument("ring size mismatch with PhaseParams");
  if (id == 0) return arena.emplace<PhaseOriginStrategy>(params_, output_fn());
  return arena.emplace<PhaseNormalStrategy>(id, params_, output_fn());
}

}  // namespace fle
