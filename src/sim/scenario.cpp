#include "sim/scenario.hpp"

#include <algorithm>
#include <vector>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/periodic_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/mpm/sync_alg.hpp"
#include "algorithms/smm/async_alg.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "algorithms/smm/sync_alg.hpp"
#include "smm/smm_simulator.hpp"

namespace sesp {

std::int32_t Scenario::processes() const {
  return shared_memory() ? smm_total_processes(spec.n, spec.b) : spec.n;
}

TimingConstraints build_constraints(const Scenario& s,
                                    std::int32_t total_processes) {
  if (s.model == "sync") return TimingConstraints::synchronous(s.c2, s.d2);
  if (s.model == "periodic") {
    std::vector<Duration> periods;
    for (std::int32_t i = 0; i < total_processes; ++i) {
      const Ratio frac = total_processes > 1
                             ? Ratio(i, std::max(total_processes - 1, 1))
                             : Ratio(0);
      periods.push_back(s.c1 + (s.c2 - s.c1) * frac);
    }
    return TimingConstraints::periodic(periods, s.d2);
  }
  if (s.model == "semisync")
    return TimingConstraints::semi_synchronous(s.c1, s.c2, s.d2);
  if (s.model == "sporadic")
    return TimingConstraints::sporadic(s.c1, s.d1, s.d2);
  return TimingConstraints::asynchronous(s.c2, s.d2);
}

std::unique_ptr<MpmAlgorithmFactory> make_mpm_factory(
    const std::string& model) {
  if (model == "sync") return std::make_unique<SyncMpmFactory>();
  if (model == "periodic") return std::make_unique<PeriodicMpmFactory>();
  if (model == "semisync") return std::make_unique<SemiSyncMpmFactory>();
  if (model == "sporadic") return std::make_unique<SporadicMpmFactory>();
  return std::make_unique<AsyncMpmFactory>();
}

std::unique_ptr<SmmAlgorithmFactory> make_smm_factory(
    const std::string& model) {
  if (model == "sync") return std::make_unique<SyncSmmFactory>();
  if (model == "periodic") return std::make_unique<PeriodicSmmFactory>();
  if (model == "semisync") return std::make_unique<SemiSyncSmmFactory>();
  return std::make_unique<AsyncSmmFactory>();
}

std::string algorithm_name(const Scenario& s) {
  return s.shared_memory() ? make_smm_factory(s.model)->name()
                           : make_mpm_factory(s.model)->name();
}

Adversary single_run_adversary(const Scenario& s,
                               const TimingConstraints& constraints) {
  const bool messages = !s.shared_memory();
  const bool by_c1 = messages && s.model == "sporadic";
  const bool random = s.model != "periodic" && s.adversary != "lockstep";
  Adversary adv;
  if (s.model == "periodic") {
    // The periodic model admits exactly one schedule per period vector.
    adv.sched = std::make_unique<FixedPeriodScheduler>(constraints.periods);
  } else if (!random) {
    adv.sched = std::make_unique<FixedPeriodScheduler>(s.processes(),
                                                       by_c1 ? s.c1 : s.c2);
  } else {
    const Duration lo = s.c1.is_positive() ? s.c1 : s.c2 / 8;
    adv.sched = std::make_unique<UniformGapScheduler>(
        lo, by_c1 ? s.c1 * 8 : s.c2, s.seed);
  }
  if (messages && random)
    adv.delay = std::make_unique<UniformRandomDelay>(s.d1, s.d2, s.seed + 1);
  else if (messages)
    adv.delay = std::make_unique<FixedDelay>(s.d2);
  return adv;
}

SingleRun run_single(const Scenario& s, FaultInjector* faults,
                     obs::Observer* observer) {
  const TimingConstraints constraints = build_constraints(s, s.processes());
  const Adversary adv = single_run_adversary(s, constraints);
  if (s.shared_memory()) {
    SmmOutcome out =
        run_smm_once(s.spec, constraints, *make_smm_factory(s.model),
                     *adv.sched, RunLimits{}, faults, observer);
    return {std::move(out.run.trace), std::move(out.run.error), out.verdict};
  }
  MpmOutcome out =
      run_mpm_once(s.spec, constraints, *make_mpm_factory(s.model),
                   *adv.sched, *adv.delay, RunLimits{}, faults, observer);
  return {std::move(out.run.trace), std::move(out.run.error), out.verdict};
}

WorstCase run_worst_case(const Scenario& s) {
  constexpr std::int32_t kRandomRuns = 4;
  const TimingConstraints constraints = build_constraints(s, s.processes());
  if (s.shared_memory())
    return smm_worst_case(s.spec, constraints, *make_smm_factory(s.model),
                          kRandomRuns, s.seed);
  return mpm_worst_case(s.spec, constraints, *make_mpm_factory(s.model),
                        kRandomRuns, s.seed);
}

DegradationReport run_degradation(const Scenario& s) {
  const TimingConstraints constraints = build_constraints(s, s.processes());
  const std::vector<std::int32_t> crashes{0, 1, 2};
  const std::vector<std::int32_t> percents{0, 5, 20};
  RunLimits limits;
  limits.max_steps = 150'000;
  if (s.shared_memory())
    return smm_degradation(s.spec, constraints, *make_smm_factory(s.model),
                           crashes, percents, s.seed, limits);
  return mpm_degradation(s.spec, constraints, *make_mpm_factory(s.model),
                         crashes, percents, s.seed, limits);
}

std::string degradation_text(const DegradationReport& report) {
  return report.to_string() + "solved/degraded/diagnosed: " +
         std::to_string(report.count(RunOutcome::kSolved)) + "/" +
         std::to_string(report.count(RunOutcome::kDegraded)) + "/" +
         std::to_string(report.count(RunOutcome::kDiagnosed)) + "\n";
}

}  // namespace sesp
