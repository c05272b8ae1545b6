#pragma once
// Statistics for election experiments: empirical outcome distributions,
// bias estimates with confidence intervals, and uniformity tests.

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "core/utility.h"

namespace fle {

/// Accumulates outcomes of repeated executions.
class OutcomeCounter {
 public:
  explicit OutcomeCounter(int n);

  /// Counts `times` executions that ended in `o`.
  void record(const Outcome& o, std::size_t times = 1);

  /// Adds another counter over the same outcome domain (sharded scenario
  /// results, api/scenario.h ScenarioResult::merge).  Throws
  /// std::invalid_argument naming the domain on a size mismatch.
  void merge(const OutcomeCounter& other);

  /// The outcome domain: counts cover leaders in [0, domain()).
  [[nodiscard]] int domain() const { return n_; }

  [[nodiscard]] std::size_t trials() const { return trials_; }
  [[nodiscard]] std::size_t fails() const { return fails_; }
  /// Count for `leader`; 0 for values outside [0, n) (never recorded, so
  /// asking is well-defined rather than undefined behaviour).
  [[nodiscard]] std::size_t count(Value leader) const {
    return leader < static_cast<Value>(n_) ? counts_[static_cast<std::size_t>(leader)] : 0;
  }
  [[nodiscard]] double fail_rate() const;
  [[nodiscard]] double leader_rate(Value leader) const;

  [[nodiscard]] OutcomeDistribution distribution() const;
  /// max_j Pr-hat[outcome = j] - 1/n.
  [[nodiscard]] double max_bias() const;

  /// Chi-square statistic of the valid-outcome counts against the uniform
  /// distribution over [0, n) conditioned on success (n-1 degrees of
  /// freedom).  Meaningful only when fails() is small.
  [[nodiscard]] double chi_square_uniform() const;

 private:
  int n_;
  std::size_t trials_ = 0;
  std::size_t fails_ = 0;
  std::vector<std::size_t> counts_;
};

/// Two-sided Hoeffding deviation bound: with probability >= 1 - alpha, an
/// empirical mean of `trials` [0,1]-valued samples is within this distance
/// of its expectation.
double hoeffding_radius(std::size_t trials, double alpha);

/// Wilson score interval for a binomial proportion.  The default z = 1.96
/// gives the familiar 95% interval; pass e.g. z = 3.2905 for a two-sided
/// 0.001 interval (what the conformance gates use).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
Interval wilson_interval(std::size_t successes, std::size_t trials, double z = 1.96);

/// Upper-tail critical value of the chi-square distribution with `dof`
/// degrees of freedom at significance 0.001, via the Wilson-Hilferty
/// approximation.  Used by uniformity tests.
double chi_square_critical_999(int dof);

}  // namespace fle
