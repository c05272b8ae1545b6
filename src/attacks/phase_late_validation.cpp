#include "attacks/phase_late_validation.h"

#include <stdexcept>

namespace fle {

namespace {

/// Pre-agreed data value for every coalition member (any constant works;
/// the values are opaque to honest processors).
constexpr Value kAgreedData = 0;

/// Honest machinery with a pre-agreed data draw.
class AgreedDataStrategy : public PhaseNormalStrategy {
 public:
  using PhaseNormalStrategy::PhaseNormalStrategy;

 protected:
  Value draw_data(RingContext&) override { return kAgreedData; }
};

/// The steerer: pre-agreed data *and* a brute-forced validation value.
class SteeringStrategy final : public AgreedDataStrategy {
 public:
  SteeringStrategy(ProcessorId id, PhaseParams params, PhaseOutputFn output,
                   const RandomFunction* f, Value target, std::uint64_t cap,
                   const Coalition* coalition)
      : AgreedDataStrategy(id, params, std::move(output)),
        f_(f),
        target_(target),
        cap_(cap),
        coalition_(coalition) {}

 protected:
  Value draw_validation(RingContext& ctx) override {
    // Invoked during our validator round r = id+1 = n-l: every other f
    // input is determined.  Complete d-hat with the pre-agreed coalition
    // values (positions we have not observed yet), then search our own v.
    const int n = params_.n;
    std::vector<Value> dmap(dval_);
    for (const ProcessorId m : coalition_->members()) {
      if (m != id_) dmap[static_cast<std::size_t>(m)] = kAgreedData;
    }
    const int keep = f_->validation_inputs();  // = n - l = our round
    std::vector<Value> vmap(static_cast<std::size_t>(keep), 0);
    for (int r = 1; r < keep; ++r) {
      vmap[static_cast<std::size_t>(r - 1)] = vval_[static_cast<std::size_t>(r - 1)];
    }
    const std::uint64_t cap = cap_ != 0 ? cap_ : 64ull * static_cast<std::uint64_t>(n);
    const Value fallback = ctx.tape().uniform(params_.m);  // honest draw
    // Our value is f's last input, so each attempt is one chain step.
    const std::size_t own_input[] = {static_cast<std::size_t>(n + keep - 1)};
    return f_->first_preimage(dmap, vmap, own_input, params_.m, cap, target_).value_or(fallback);
  }

 private:
  const RandomFunction* f_;
  Value target_;
  std::uint64_t cap_;
  const Coalition* coalition_;
};

}  // namespace

Coalition PhaseLateValidationDeviation::build_coalition(const PhaseParams& params) {
  const int n = params.n;
  const int l = params.l;
  if (n - params.l - 1 < 1) throw std::invalid_argument("l too large for this attack");
  std::vector<ProcessorId> members;
  for (int p = n - l - 1; p <= n - 2; ++p) members.push_back(p);
  return Coalition(n, std::move(members));
}

PhaseLateValidationDeviation::PhaseLateValidationDeviation(
    const PhaseAsyncLeadProtocol& protocol, Value target, std::uint64_t search_cap)
    : coalition_(build_coalition(protocol.params())),
      target_(target),
      protocol_(&protocol),
      search_cap_(search_cap),
      steerer_(protocol.params().n - protocol.params().l - 1) {
  if (target_ >= static_cast<Value>(protocol.params().n)) {
    throw std::invalid_argument("target out of range");
  }
}

RingStrategy* PhaseLateValidationDeviation::emplace_adversary(StrategyArena& arena,
                                                              ProcessorId id, int n) const {
  if (!coalition_.contains(id)) throw std::invalid_argument("not a coalition member");
  if (n != protocol_->params().n) throw std::invalid_argument("ring size mismatch");
  if (id == steerer_) {
    return arena.emplace<SteeringStrategy>(id, protocol_->params(), protocol_->output_fn(),
                                           &protocol_->f(), target_, search_cap_,
                                           &coalition_);
  }
  return arena.emplace<AgreedDataStrategy>(id, protocol_->params(), protocol_->output_fn());
}

}  // namespace fle
