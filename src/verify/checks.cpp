#include "verify/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "analysis/stats.h"

namespace fle::verify {

std::string check_subject(const ScenarioSpec& spec) {
  std::string subject = std::string(to_string(spec.topology)) + "/" + spec.protocol;
  if (!spec.deviation.empty()) subject += "+" + spec.deviation;
  subject += " n=" + std::to_string(spec.n);
  subject += " trials=" + std::to_string(spec.trials);
  return subject;
}

CheckResult check_uniformity(const ScenarioSpec& spec, const UniformityOptions& options) {
  if (!spec.deviation.empty()) {
    throw std::invalid_argument("check_uniformity takes an honest spec (deviation '" +
                                spec.deviation + "' set)");
  }
  // Validate the support before spending the trial budget.
  const Value lo = options.support.lo;
  const Value hi = options.support.hi != 0 ? options.support.hi : static_cast<Value>(spec.n);
  if (hi <= lo + 1) {
    throw std::invalid_argument("check_uniformity needs a support of >= 2 outcomes");
  }
  return check_uniformity(spec, run_scenario(spec), options);
}

CheckResult check_uniformity(const ScenarioSpec& spec, const ScenarioResult& result,
                             const UniformityOptions& options) {
  if (!spec.deviation.empty()) {
    throw std::invalid_argument("check_uniformity takes an honest spec (deviation '" +
                                spec.deviation + "' set)");
  }
  const Value lo = options.support.lo;
  const Value hi = options.support.hi != 0 ? options.support.hi : static_cast<Value>(spec.n);
  if (hi <= lo + 1) {
    throw std::invalid_argument("check_uniformity needs a support of >= 2 outcomes");
  }
  const std::string subject = check_subject(spec);

  if (result.outcomes.fail_rate() > options.max_fail_rate) {
    return CheckResult::fail("uniformity", subject,
                             "fail rate " + format_double(result.outcomes.fail_rate()) +
                                 " > envelope " + format_double(options.max_fail_rate));
  }

  // Conditioned on success, the leader must be uniform over [lo, hi); any
  // mass outside the support is an immediate failure.
  std::size_t in_support = 0;
  for (Value j = lo; j < hi; ++j) in_support += result.outcomes.count(j);
  const std::size_t valid = result.outcomes.trials() - result.outcomes.fails();
  if (in_support != valid) {
    return CheckResult::fail(
        "uniformity", subject,
        std::to_string(valid - in_support) + " outcomes outside support [" +
            std::to_string(lo) + ", " + std::to_string(hi) + ")");
  }
  if (valid == 0) {
    return CheckResult::fail("uniformity", subject, "no valid outcomes to test");
  }

  const auto cells = static_cast<int>(hi - lo);
  const double expected = static_cast<double>(valid) / cells;
  double chi = 0.0;
  for (Value j = lo; j < hi; ++j) {
    const double diff = static_cast<double>(result.outcomes.count(j)) - expected;
    chi += diff * diff / expected;
  }
  const double critical = chi_square_critical_999(cells - 1);
  const std::string detail = "chi2 = " + format_double(chi) + " vs critical(0.999, dof=" +
                             std::to_string(cells - 1) + ") = " + format_double(critical);
  return chi <= critical ? CheckResult::pass("uniformity", subject, detail)
                         : CheckResult::fail("uniformity", subject, detail);
}

CheckResult check_resilience(const ScenarioSpec& spec, const ResilienceOptions& options) {
  if (spec.deviation.empty()) {
    throw std::invalid_argument("check_resilience needs a deviated spec");
  }
  ScenarioSpec honest = options.baseline ? *options.baseline : spec;
  if (!options.baseline) {
    honest.deviation.clear();
    honest.coalition = CoalitionSpec{};
  }
  if (!honest.deviation.empty()) {
    throw std::invalid_argument("check_resilience baseline must be honest");
  }

  return check_resilience(spec, run_scenario(spec), run_scenario(honest), options);
}

CheckResult check_resilience(const ScenarioSpec& spec, const ScenarioResult& deviated,
                             const ScenarioResult& baseline,
                             const ResilienceOptions& options) {
  if (spec.deviation.empty()) {
    throw std::invalid_argument("check_resilience needs a deviated spec");
  }
  const std::string subject = check_subject(spec);

  // Indicator utility for the coalition's target (Lemma 2.4): the gain is
  // Pr[leader = target | deviated] - Pr[leader = target | honest].  FAIL
  // contributes zero utility (Definition 2.1's solution preference), so
  // failed trials stay in the denominator.  z = 3.2905 puts the Wilson
  // gate at two-sided significance 0.001, like every other gate here.
  const double z = 3.2905;
  const std::size_t dev_hits = deviated.outcomes.count(spec.target);
  const std::size_t base_hits = baseline.outcomes.count(spec.target);
  const Interval dev_ci = wilson_interval(dev_hits, deviated.trials, z);
  const Interval base_ci = wilson_interval(base_hits, baseline.trials, z);
  const double gain = static_cast<double>(dev_hits) / static_cast<double>(deviated.trials) -
                      static_cast<double>(base_hits) / static_cast<double>(baseline.trials);
  const double gain_lower = dev_ci.lo - base_ci.hi;
  const double radius =
      hoeffding_radius(std::min(deviated.trials, baseline.trials), 0.001);

  const std::string detail =
      "gain = " + format_double(gain) + " (lower bound " + format_double(gain_lower) +
      ", eps = " + format_double(options.epsilon) +
      ", hoeffding(0.001) = " + format_double(radius) + ")";
  return gain_lower <= options.epsilon
             ? CheckResult::pass("resilience", subject, detail)
             : CheckResult::fail("resilience", subject, detail);
}

CheckResult check_attack_floor(const ScenarioSpec& spec, const AttackFloorOptions& options) {
  if (spec.deviation.empty()) {
    throw std::invalid_argument("check_attack_floor needs a deviated spec");
  }
  if (options.min_target_rate <= 0.0 || options.min_target_rate > 1.0) {
    throw std::invalid_argument("AttackFloorOptions.min_target_rate must be in (0, 1]");
  }
  return check_attack_floor(spec, run_scenario(spec), options);
}

CheckResult check_attack_floor(const ScenarioSpec& spec, const ScenarioResult& result,
                               const AttackFloorOptions& options) {
  if (spec.deviation.empty()) {
    throw std::invalid_argument("check_attack_floor needs a deviated spec");
  }
  if (options.min_target_rate <= 0.0 || options.min_target_rate > 1.0) {
    throw std::invalid_argument("AttackFloorOptions.min_target_rate must be in (0, 1]");
  }
  const std::string subject = check_subject(spec);
  const std::size_t hits = result.outcomes.count(spec.target);
  const double rate =
      result.trials > 0
          ? static_cast<double>(hits) / static_cast<double>(result.trials)
          : 0.0;

  if (options.min_target_rate >= 1.0) {
    // The theorem is exact (Pr[target] = 1): any miss disproves it.
    const std::string detail = "Pr[target] = " + format_double(rate) + " (" +
                               std::to_string(hits) + "/" + std::to_string(result.trials) +
                               "), theorem floor = 1";
    return hits == result.trials && result.trials > 0
               ? CheckResult::pass("attack-floor", subject, detail)
               : CheckResult::fail("attack-floor", subject, detail);
  }

  // Fractional floor: fail only when the Wilson interval puts the true
  // rate confidently below it (z = 3.2905, two-sided significance 0.001,
  // matching every other gate here).
  const Interval ci = wilson_interval(hits, result.trials, 3.2905);
  const std::string detail = "Pr[target] = " + format_double(rate) + " (wilson [" +
                             format_double(ci.lo) + ", " + format_double(ci.hi) +
                             "]), theorem floor = " + format_double(options.min_target_rate);
  return ci.hi >= options.min_target_rate
             ? CheckResult::pass("attack-floor", subject, detail)
             : CheckResult::fail("attack-floor", subject, detail);
}

CheckResult check_sync_gap(const ScenarioSpec& spec, const SyncGapOptions& options) {
  if (options.max_gap == 0) {
    throw std::invalid_argument("SyncGapOptions.max_gap must be non-zero");
  }
  return check_sync_gap(spec, run_scenario(spec), options);
}

CheckResult check_sync_gap(const ScenarioSpec& spec, const ScenarioResult& result,
                           const SyncGapOptions& options) {
  if (options.max_gap == 0) {
    throw std::invalid_argument("SyncGapOptions.max_gap must be non-zero");
  }
  const std::string subject = check_subject(spec);
  const std::string detail = "max sync gap " + std::to_string(result.max_sync_gap) +
                             " vs envelope " + std::to_string(options.max_gap) +
                             " (mean " + format_double(result.mean_sync_gap()) + ")";
  return result.max_sync_gap <= options.max_gap
             ? CheckResult::pass("sync-gap", subject, detail)
             : CheckResult::fail("sync-gap", subject, detail);
}

CheckResult check_termination_and_messages(const ScenarioSpec& spec,
                                           const TerminationOptions& options) {
  return check_termination_and_messages(spec, run_scenario(spec), options);
}

CheckResult check_termination_and_messages(const ScenarioSpec& spec,
                                           const ScenarioResult& result,
                                           const TerminationOptions& options) {
  const std::string subject = check_subject(spec);

  if (result.outcomes.fail_rate() > options.max_fail_rate) {
    return CheckResult::fail("termination", subject,
                             "fail rate " + format_double(result.outcomes.fail_rate()) +
                                 " > envelope " + format_double(options.max_fail_rate));
  }
  if (options.max_messages != 0 && result.max_messages > options.max_messages) {
    return CheckResult::fail("termination", subject,
                             "max messages " + std::to_string(result.max_messages) +
                                 " > envelope " + std::to_string(options.max_messages));
  }
  std::string detail = "fail rate " + format_double(result.outcomes.fail_rate());
  if (options.max_messages != 0) {
    detail += ", max messages " + std::to_string(result.max_messages) + " <= " +
              std::to_string(options.max_messages);
  }
  return CheckResult::pass("termination", subject, detail);
}

}  // namespace fle::verify
