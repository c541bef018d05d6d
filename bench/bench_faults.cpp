// Graceful-degradation report for the Table 1 algorithms: every (timing
// model, substrate) pair is swept over a crash x loss/corruption grid
// (k in {0,1,2} crash-stops, p in {0,5,20}% message loss for MP / shared
// variable write corruption for SM) under the model's canonical
// deterministic adversary. The robustness contract under test: the
// fault-free cell solves, every faulty cell is classified (solved /
// degraded / diagnosed), and nothing ever aborts. Exit status 0 iff the
// contract holds for every grid.

#include <iostream>
#include <string>
#include <vector>

#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/periodic_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/mpm/sync_alg.hpp"
#include "algorithms/smm/async_alg.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "algorithms/smm/sync_alg.hpp"
#include "sim/experiment.hpp"

#include "obs/bench_record.hpp"

using namespace sesp;

namespace {

// The contract every grid must satisfy. The baseline (first) cell is the
// fault-free run and must solve outright; all cells must carry a diagnostic.
bool check(const DegradationReport& report) {
  bool ok = !report.cells.empty() &&
            report.cells.front().outcome == RunOutcome::kSolved;
  for (const DegradationCell& cell : report.cells) {
    ok = ok && !cell.diagnostic.empty();
    if (cell.crashes > 0 && cell.outcome == RunOutcome::kSolved) ok = false;
  }
  std::cout << report.to_string() << "  contract: "
            << (ok ? "ok" : "VIOLATED") << "  (solved/degraded/diagnosed "
            << report.count(RunOutcome::kSolved) << "/"
            << report.count(RunOutcome::kDegraded) << "/"
            << report.count(RunOutcome::kDiagnosed) << ")\n\n";
  return ok;
}

std::vector<Duration> spread_periods(std::int32_t total, Duration c1,
                                     Duration c2) {
  std::vector<Duration> periods;
  for (std::int32_t i = 0; i < total; ++i) {
    const Ratio frac =
        total > 1 ? Ratio(i, std::max(total - 1, 1)) : Ratio(0);
    periods.push_back(c1 + (c2 - c1) * frac);
  }
  return periods;
}

}  // namespace

int main() {
  obs::BenchRecorder recorder("faults");
  bool ok = true;
  const ProblemSpec spec{3, 4, 2};
  const Duration c1(1), c2(2), d1(0), d2(4);
  RunLimits mpm_limits;
  mpm_limits.max_steps = 100'000;  // injected livelocks are cut fast
  RunLimits smm_limits;
  smm_limits.max_steps = 100'000;

  std::cout << "=== MP substrate: crashes x message loss ===\n\n";
  {
    SyncMpmFactory f;
    ok = check(mpm_degradation(spec, TimingConstraints::synchronous(c2, d2),
                               f, {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL,
                               mpm_limits)) &&
         ok;
  }
  {
    PeriodicMpmFactory f;
    ok = check(mpm_degradation(
             spec,
             TimingConstraints::periodic(spread_periods(spec.n, c1, c2), d2),
             f, {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL, mpm_limits)) &&
         ok;
  }
  {
    SemiSyncMpmFactory f;
    ok = check(mpm_degradation(
             spec, TimingConstraints::semi_synchronous(c1, c2, d2), f,
             {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL, mpm_limits)) &&
         ok;
  }
  {
    SporadicMpmFactory f;
    ok = check(mpm_degradation(spec, TimingConstraints::sporadic(c1, d1, d2),
                               f, {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL,
                               mpm_limits)) &&
         ok;
  }
  {
    AsyncMpmFactory f;
    ok = check(mpm_degradation(spec, TimingConstraints::asynchronous(c2, d2),
                               f, {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL,
                               mpm_limits)) &&
         ok;
  }

  std::cout << "=== SM substrate: crashes x write corruption ===\n\n";
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  {
    SyncSmmFactory f;
    ok = check(smm_degradation(spec, TimingConstraints::synchronous(c2), f,
                               {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL,
                               smm_limits)) &&
         ok;
  }
  {
    PeriodicSmmFactory f;
    ok = check(smm_degradation(
             spec, TimingConstraints::periodic(spread_periods(total, c1, c2)),
             f, {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL, smm_limits)) &&
         ok;
  }
  {
    SemiSyncSmmFactory f;
    ok = check(smm_degradation(spec,
                               TimingConstraints::semi_synchronous(c1, c2), f,
                               {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL,
                               smm_limits)) &&
         ok;
  }
  {
    AsyncSmmFactory f;
    ok = check(smm_degradation(spec, TimingConstraints::asynchronous(), f,
                               {0, 1, 2}, {0, 5, 20}, 0x0FA17'1992ULL,
                               smm_limits)) &&
         ok;
  }

  std::cout << (ok ? "ALL CONTRACTS HOLD" : "CONTRACT VIOLATIONS") << "\n";
  return recorder.finish(ok);
}
