// Randomized adversary sweeps ("fuzzing" within the admissible space):
// every correct algorithm must solve its instance under many seeded random
// schedules and delay assignments, and every produced trace must pass the
// admissibility checker. Failures print the seed for reproduction.

#include <gtest/gtest.h>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/periodic_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/p2p/knowledge_algs.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "p2p/p2p_simulator.hpp"
#include "sim/experiment.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"

namespace sesp {
namespace {

using test_support::expect_contract;
using test_support::random_spec;
using test_support::random_topology;

class FuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeeds, SporadicMpmUnderRandomBurstsAndDelays) {
  const std::uint64_t seed = 0xF022ULL + 7919ULL * GetParam();
  Rng meta(seed);
  const ProblemSpec spec = random_spec(meta, 2, 6, 2, 4);
  const Duration c1(1);
  const Duration d1(meta.next_int(0, 6));
  const Duration d2 = d1 + Ratio(meta.next_int(0, 12));
  const auto constraints = TimingConstraints::sporadic(c1, d1, d2);

  SporadicMpmFactory factory;
  BurstyScheduler sched(c1, 1, 5, 1 + meta.next_int(1, 20), seed + 1);
  UniformRandomDelay delay(d1, d2, seed + 2);
  const MpmOutcome out =
      run_mpm_once(spec, constraints, factory, sched, delay);
  EXPECT_TRUE(out.run.completed) << "seed=" << seed;
  EXPECT_TRUE(out.verdict.admissible)
      << "seed=" << seed << ": " << out.verdict.admissibility_violation;
  EXPECT_TRUE(out.verdict.solves)
      << "seed=" << seed << " sessions=" << out.verdict.sessions
      << " need=" << spec.s;
}

TEST_P(FuzzSeeds, SemiSyncMpmUnderRandomSchedules) {
  const std::uint64_t seed = 0x5E15ULL + 104729ULL * GetParam();
  Rng meta(seed);
  const ProblemSpec spec = random_spec(meta, 1, 7, 2, 5);
  const Duration c1(1);
  const Duration c2 = c1 + Ratio(meta.next_int(0, 15));
  const Duration d2(meta.next_int(1, 30));
  const auto constraints = TimingConstraints::semi_synchronous(c1, c2, d2);

  SemiSyncMpmFactory factory;  // auto strategy
  UniformGapScheduler sched(c1, c2, seed + 3);
  UniformRandomDelay delay(Duration(0), d2, seed + 4);
  const MpmOutcome out =
      run_mpm_once(spec, constraints, factory, sched, delay);
  EXPECT_TRUE(out.verdict.admissible)
      << "seed=" << seed << ": " << out.verdict.admissibility_violation;
  EXPECT_TRUE(out.verdict.solves)
      << "seed=" << seed << " sessions=" << out.verdict.sessions;
}

TEST_P(FuzzSeeds, AsyncMpmUnderRandomSchedules) {
  const std::uint64_t seed = 0xA51CULL + 15485863ULL * GetParam();
  Rng meta(seed);
  const ProblemSpec spec = random_spec(meta, 1, 6, 2, 6);
  const Duration c2(4), d2(meta.next_int(1, 20));
  const auto constraints = TimingConstraints::asynchronous(c2, d2);

  AsyncMpmFactory factory;
  UniformGapScheduler sched(Duration(1, 4), c2, seed + 5);
  UniformRandomDelay delay(Duration(0), d2, seed + 6);
  const MpmOutcome out =
      run_mpm_once(spec, constraints, factory, sched, delay);
  EXPECT_TRUE(out.verdict.admissible)
      << "seed=" << seed << ": " << out.verdict.admissibility_violation;
  EXPECT_TRUE(out.verdict.solves) << "seed=" << seed;
}

TEST_P(FuzzSeeds, PeriodicSmmUnderRandomPeriods) {
  const std::uint64_t seed = 0x9E210DULL + 6700417ULL * GetParam();
  Rng meta(seed);
  const ProblemSpec spec = random_spec(meta, 1, 5, 2, 7, 2, 3);
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  std::vector<Duration> periods;
  periods.reserve(static_cast<std::size_t>(total));
  for (std::int32_t i = 0; i < total; ++i)
    periods.push_back(Ratio(meta.next_int(1, 8), meta.next_int(1, 3)));
  const auto constraints = TimingConstraints::periodic(periods);

  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(periods);
  const SmmOutcome out = run_smm_once(spec, constraints, factory, sched);
  EXPECT_TRUE(out.run.completed) << "seed=" << seed;
  EXPECT_TRUE(out.verdict.admissible)
      << "seed=" << seed << ": " << out.verdict.admissibility_violation;
  EXPECT_TRUE(out.verdict.solves)
      << "seed=" << seed << " sessions=" << out.verdict.sessions;
}

TEST_P(FuzzSeeds, SemiSyncSmmUnderRandomSchedules) {
  const std::uint64_t seed = 0x53A11ULL + 32452843ULL * GetParam();
  Rng meta(seed);
  const ProblemSpec spec = random_spec(meta, 1, 5, 2, 5);
  const Duration c1(1);
  const Duration c2 = c1 + Ratio(meta.next_int(0, 10));
  const auto constraints = TimingConstraints::semi_synchronous(c1, c2);

  SemiSyncSmmFactory factory;  // auto
  UniformGapScheduler sched(c1, c2, seed + 7);
  const SmmOutcome out = run_smm_once(spec, constraints, factory, sched);
  EXPECT_TRUE(out.verdict.admissible)
      << "seed=" << seed << ": " << out.verdict.admissibility_violation;
  EXPECT_TRUE(out.verdict.solves)
      << "seed=" << seed << " sessions=" << out.verdict.sessions;
}

TEST_P(FuzzSeeds, P2pRoundsOnRandomTopology) {
  const std::uint64_t seed = 0x292ULL + 49979687ULL * GetParam();
  Rng meta(seed);
  const std::int32_t n = 2 + static_cast<std::int32_t>(meta.next_below(10));
  const ProblemSpec spec{1 + static_cast<std::int64_t>(meta.next_below(4)),
                         n, 2};
  const Topology topo = random_topology(meta, n);
  const Duration c2(2), d2(meta.next_int(1, 8));
  const auto constraints = TimingConstraints::asynchronous(c2, d2);

  P2pRoundsFactory factory;
  UniformGapScheduler sched(Duration(1, 2), c2, seed + 8);
  UniformRandomDelay delay(Duration(0), d2, seed + 9);
  P2pSimulator sim(spec, constraints, topo, factory, sched, delay);
  const P2pRunResult run = sim.run();
  const Verdict verdict = verify(run.trace, spec, constraints);
  EXPECT_TRUE(verdict.admissible)
      << "seed=" << seed << " " << topo.name() << ": "
      << verdict.admissibility_violation;
  EXPECT_TRUE(verdict.solves)
      << "seed=" << seed << " " << topo.name()
      << " sessions=" << verdict.sessions;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 20));

// --- Fault-injection fuzz ---------------------------------------------------
//
// Chaos sweep: every seeded random fault plan — crashes, loss, duplication,
// extra delays, timing violations, write corruption — must leave the run in
// exactly one of the three contract buckets: solved, degraded with an
// admissible partial verdict, or diagnosed with a localized inadmissibility /
// structured SimError. Never an abort, never a silent wrong answer. Limits
// are kept small so injected livelocks are cut fast by the watchdogs.

class FaultFuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzzSeeds, MpmChaosAlwaysClassified) {
  const std::uint64_t seed = 0xFA17'F0DDULL + 2654435761ULL * GetParam();
  Rng meta(seed);
  const ProblemSpec spec = random_spec(meta, 1, 4, 2, 4);
  const Duration c1(1);
  const Duration c2 = c1 + Ratio(meta.next_int(0, 6));
  const Duration d2(meta.next_int(1, 10));
  const auto constraints = TimingConstraints::semi_synchronous(c1, c2, d2);

  FaultInjector injector(FaultPlan::random(seed, spec.n));
  SemiSyncMpmFactory factory;
  UniformGapScheduler sched(c1, c2, seed + 11);
  UniformRandomDelay delay(Duration(0), d2, seed + 12);
  RunLimits limits;
  limits.max_steps = 20'000;
  const MpmOutcome out = run_mpm_once(spec, constraints, factory, sched,
                                      delay, limits, &injector);
  expect_contract(out.run, out.verdict, seed);
}

TEST_P(FaultFuzzSeeds, SmmChaosAlwaysClassified) {
  const std::uint64_t seed = 0x53A1'F0DDULL + 1099511628211ULL * GetParam();
  Rng meta(seed);
  const ProblemSpec spec = random_spec(meta, 1, 4, 2, 4, 2, 2);
  const Duration c1(1);
  const Duration c2 = c1 + Ratio(meta.next_int(0, 5));
  const auto constraints = TimingConstraints::semi_synchronous(c1, c2);
  const std::int32_t total = smm_total_processes(spec.n, spec.b);

  FaultInjector injector(FaultPlan::random(seed, total));
  SemiSyncSmmFactory factory;
  UniformGapScheduler sched(c1, c2, seed + 13);
  RunLimits limits;
  limits.max_steps = 20'000;
  const SmmOutcome out =
      run_smm_once(spec, constraints, factory, sched, limits, &injector);
  expect_contract(out.run, out.verdict, seed);
}

TEST_P(FaultFuzzSeeds, P2pChaosAlwaysClassified) {
  const std::uint64_t seed = 0x1292'F0DDULL + 40503'86429ULL * GetParam();
  Rng meta(seed);
  const std::int32_t n = 2 + static_cast<std::int32_t>(meta.next_below(6));
  const ProblemSpec spec{1 + static_cast<std::int64_t>(meta.next_below(3)),
                         n, 2};
  const Topology topo = random_topology(meta, n, 4);
  const Duration c2(2), d2(meta.next_int(1, 6));
  const auto constraints = TimingConstraints::asynchronous(c2, d2);

  FaultInjector injector(FaultPlan::random(seed, n));
  P2pRoundsFactory factory;
  UniformGapScheduler sched(Duration(1, 2), c2, seed + 14);
  UniformRandomDelay delay(Duration(0), d2, seed + 15);
  RunLimits limits;
  limits.max_steps = 20'000;
  const P2pOutcome out = run_p2p_once(spec, constraints, topo, factory, sched,
                                      delay, limits, &injector);
  expect_contract(out.run, out.verdict, seed);
}

INSTANTIATE_TEST_SUITE_P(ChaosSeeds, FaultFuzzSeeds, ::testing::Range(0, 200));

}  // namespace
}  // namespace sesp
