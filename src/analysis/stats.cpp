#include "analysis/stats.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace fle {

OutcomeCounter::OutcomeCounter(int n) : n_(n), counts_(static_cast<std::size_t>(n), 0) {}

void OutcomeCounter::record(const Outcome& o, std::size_t times) {
  if (!o.failed() && o.leader() >= static_cast<Value>(n_)) {
    // Engines can't produce this (aggregate_outcome maps out-of-range local
    // outputs to FAIL), so it is a caller bug; fail loudly rather than
    // writing past counts_ in NDEBUG builds.  Deliberately NOT
    // invalid_argument: the fuzzer treats that type as a clean spec
    // rejection, and this guard must surface as a violation there.
    throw std::out_of_range("OutcomeCounter(n = " + std::to_string(n_) +
                            ") asked to record leader " + std::to_string(o.leader()));
  }
  trials_ += times;
  if (o.failed()) {
    fails_ += times;
    return;
  }
  counts_[static_cast<std::size_t>(o.leader())] += times;
}

void OutcomeCounter::merge(const OutcomeCounter& other) {
  if (n_ != other.n_) {
    throw std::invalid_argument("OutcomeCounter.merge: outcome domains differ (" +
                                std::to_string(n_) + " vs " + std::to_string(other.n_) +
                                ")");
  }
  trials_ += other.trials_;
  fails_ += other.fails_;
  for (std::size_t j = 0; j < counts_.size(); ++j) counts_[j] += other.counts_[j];
}

double OutcomeCounter::fail_rate() const {
  return trials_ == 0 ? 0.0 : static_cast<double>(fails_) / static_cast<double>(trials_);
}

double OutcomeCounter::leader_rate(Value leader) const {
  return trials_ == 0 ? 0.0
                      : static_cast<double>(count(leader)) / static_cast<double>(trials_);
}

OutcomeDistribution OutcomeCounter::distribution() const {
  OutcomeDistribution d;
  d.trials = trials_;
  d.fail_probability = fail_rate();
  d.leader_probability.resize(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) d.leader_probability[static_cast<std::size_t>(j)] =
      leader_rate(static_cast<Value>(j));
  return d;
}

double OutcomeCounter::max_bias() const {
  const auto d = distribution();
  return fle::max_bias(d);
}

double OutcomeCounter::chi_square_uniform() const {
  const std::size_t valid = trials_ - fails_;
  if (valid == 0) return 0.0;
  const double expected = static_cast<double>(valid) / n_;
  double chi = 0.0;
  for (const std::size_t c : counts_) {
    const double diff = static_cast<double>(c) - expected;
    chi += diff * diff / expected;
  }
  return chi;
}

double hoeffding_radius(std::size_t trials, double alpha) {
  // trials == 0 carries no information and alpha <= 0 demands certainty:
  // both degenerate to the vacuous radius 1 (the whole [0,1] range) rather
  // than dividing by zero / taking log of a non-positive number.
  if (trials == 0 || alpha <= 0.0) return 1.0;
  const double radius =
      std::sqrt(std::log(2.0 / alpha) / (2.0 * static_cast<double>(trials)));
  return std::min(radius, 1.0);
}

Interval wilson_interval(std::size_t successes, std::size_t trials, double z) {
  if (trials == 0) return {0.0, 1.0};
  const double nt = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / nt;
  const double denom = 1.0 + z * z / nt;
  const double center = (p + z * z / (2.0 * nt)) / denom;
  const double radius =
      z * std::sqrt(p * (1.0 - p) / nt + z * z / (4.0 * nt * nt)) / denom;
  return {center - radius, center + radius};
}

double chi_square_critical_999(int dof) {
  if (dof <= 0) return 0.0;  // no degrees of freedom, nothing to exceed
  // Wilson-Hilferty: X ~ chi2(k) => (X/k)^(1/3) approx N(1 - 2/(9k), 2/(9k)).
  const double k = static_cast<double>(dof);
  const double z = 3.0902;  // Phi^-1(0.999)
  const double a = 2.0 / (9.0 * k);
  const double cube = 1.0 - a + z * std::sqrt(a);
  return k * cube * cube * cube;
}

}  // namespace fle
