#include "sim/trace.h"

#include <algorithm>

namespace fle {

SyncTrace::SyncTrace(std::vector<ProcessorId> watch, std::uint64_t sample_every)
    : watch_(std::move(watch)), sample_every_(std::max<std::uint64_t>(1, sample_every)) {}

DeliveryObserver SyncTrace::observer() {
  return [this](std::uint64_t step, ProcessorId /*to*/, Value /*v*/,
                std::span<const std::uint64_t> sent) { on_delivery(step, sent); };
}

void SyncTrace::reset() {
  max_gap_ = 0;
  series_.clear();
}

void SyncTrace::on_delivery(std::uint64_t step, std::span<const std::uint64_t> sent) {
  std::uint64_t lo = ~0ull;
  std::uint64_t hi = 0;
  if (watch_.empty()) {
    for (const std::uint64_t s : sent) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
  } else {
    for (const ProcessorId p : watch_) {
      const std::uint64_t s = sent[static_cast<std::size_t>(p)];
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
  }
  const std::uint64_t gap = (hi >= lo) ? hi - lo : 0;
  max_gap_ = std::max(max_gap_, gap);
  if (step % sample_every_ == 0) series_.push_back(gap);
}

}  // namespace fle
