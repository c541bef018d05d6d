// The parallel sweep engine's two contracts (docs/parallelism.md):
//
//  1. Mechanics: parallel_for_each runs every index exactly once for any
//     job count, nests safely, and resolves its job count through
//     set_default_jobs / SESP_JOBS.
//  2. Determinism: every sweep built on it — worst-case families,
//     degradation grids, chaos sweeps, the exhaustive enumerator — returns
//     results identical to the serial (jobs=1) run for any job count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "adversary/exhaustive.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "exec/jobs.hpp"
#include "exec/thread_pool.hpp"
#include "obs/observer.hpp"
#include "sim/experiment.hpp"
#include "support/test_support.hpp"

namespace sesp {
namespace {

using test_support::JobsGuard;

// --- parallel_for_each mechanics --------------------------------------------

TEST(ParallelForEach, RunsEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 3, 8}) {
    std::vector<std::atomic<int>> hits(257);
    exec::parallel_for_each(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, jobs);
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(ParallelForEach, ZeroCountIsANoOp) {
  bool ran = false;
  exec::parallel_for_each(0, [&](std::size_t) { ran = true; }, 4);
  EXPECT_FALSE(ran);
}

TEST(ParallelForEach, SlotIndexedResultsAreOrderIndependent) {
  std::vector<std::size_t> out(1000, 0);
  exec::parallel_for_each(
      out.size(), [&](std::size_t i) { out[i] = i * i; }, 8);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelForEach, NestedCallsRunInline) {
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_worker_inline{false};
  exec::parallel_for_each(
      4,
      [&](std::size_t) {
        if (exec::inside_pool_worker()) saw_worker_inline = true;
        exec::parallel_for_each(
            8, [&](std::size_t) { inner_total.fetch_add(1); }, 4);
      },
      4);
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

// A throwing task must not tear down the pool or lose the sweep: every
// slot still runs, and the barrier rethrows the smallest-index exception on
// the caller's thread regardless of worker scheduling.
TEST(ParallelForEach, FirstSlotOrderExceptionWinsAndAllSlotsRun) {
  for (const int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(16);
    bool caught = false;
    try {
      exec::parallel_for_each(
          hits.size(),
          [&](std::size_t i) {
            hits[i].fetch_add(1);
            if (i == 3) throw std::runtime_error("slot 3");
            if (i == 5) throw std::runtime_error("slot 5");
          },
          jobs);
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "slot 3") << "jobs=" << jobs;
    }
    EXPECT_TRUE(caught) << "jobs=" << jobs;
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(ParallelForEach, PoolStaysUsableAfterException) {
  EXPECT_THROW(
      exec::parallel_for_each(
          8, [](std::size_t i) { if (i == 0) throw std::runtime_error("x"); },
          4),
      std::runtime_error);
  // The next sweep must run clean: no stale exception, no lost workers.
  std::vector<std::atomic<int>> hits(64);
  exec::parallel_for_each(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Jobs, ExplicitOverrideWinsAndRestores) {
  const int before = exec::default_jobs();
  {
    JobsGuard guard(3);
    EXPECT_EQ(exec::default_jobs(), 3);
  }
  EXPECT_EQ(exec::default_jobs(), before);
}

TEST(Jobs, HardwareJobsIsPositive) { EXPECT_GE(exec::hardware_jobs(), 1); }

// --- Sweep determinism across job counts ------------------------------------
//
// Each sweep is run at jobs=1 (the serial reference) and re-run at 2 and 8;
// every aggregate field must be identical. The chaos digests additionally
// pin the per-run classification order byte for byte.

TEST(SweepDeterminism, MpmWorstCaseIsJobCountInvariant) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(2),
                                          Duration(3));
  SemiSyncMpmFactory factory;

  JobsGuard serial(1);
  const WorstCase reference = mpm_worst_case(spec, constraints, factory, 4);
  EXPECT_GT(reference.runs, 0);
  for (const int jobs : {2, 8}) {
    JobsGuard guard(jobs);
    const WorstCase wc = mpm_worst_case(spec, constraints, factory, 4);
    EXPECT_EQ(wc, reference) << "jobs=" << jobs;
  }
}

TEST(SweepDeterminism, SmmWorstCaseIsJobCountInvariant) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(2));
  SemiSyncSmmFactory factory;

  JobsGuard serial(1);
  const WorstCase reference = smm_worst_case(spec, constraints, factory, 4);
  EXPECT_GT(reference.runs, 0);
  for (const int jobs : {2, 8}) {
    JobsGuard guard(jobs);
    const WorstCase wc = smm_worst_case(spec, constraints, factory, 4);
    EXPECT_EQ(wc, reference) << "jobs=" << jobs;
  }
}

TEST(SweepDeterminism, MpmDegradationGridIsJobCountInvariant) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(2),
                                          Duration(3));
  SemiSyncMpmFactory factory;

  JobsGuard serial(1);
  const DegradationReport reference =
      mpm_degradation(spec, constraints, factory);
  EXPECT_FALSE(reference.cells.empty());
  for (const int jobs : {2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(mpm_degradation(spec, constraints, factory), reference)
        << "jobs=" << jobs;
  }
}

TEST(SweepDeterminism, SmmDegradationGridIsJobCountInvariant) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(2));
  SemiSyncSmmFactory factory;

  JobsGuard serial(1);
  const DegradationReport reference =
      smm_degradation(spec, constraints, factory);
  EXPECT_FALSE(reference.cells.empty());
  for (const int jobs : {2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(smm_degradation(spec, constraints, factory), reference)
        << "jobs=" << jobs;
  }
}

TEST(SweepDeterminism, ChaosSweepDigestsAreJobCountInvariant) {
  const ProblemSpec spec{2, 3, 2};
  const auto mpm_constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(3),
                                          Duration(4));
  const auto smm_constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(3));
  SemiSyncMpmFactory mpm_factory;
  SemiSyncSmmFactory smm_factory;
  RunLimits mpm_limits;
  mpm_limits.max_steps = 20'000;
  RunLimits smm_limits;
  smm_limits.max_steps = 20'000;

  JobsGuard serial(1);
  const ChaosReport mpm_ref =
      mpm_chaos_sweep(spec, mpm_constraints, mpm_factory, 16, 0xC4A05ULL,
                      mpm_limits);
  const ChaosReport smm_ref =
      smm_chaos_sweep(spec, smm_constraints, smm_factory, 16, 0xC4A05ULL,
                      smm_limits);
  EXPECT_EQ(mpm_ref.runs, 16);
  EXPECT_EQ(smm_ref.runs, 16);
  EXPECT_TRUE(mpm_ref.contract_ok) << mpm_ref.first_violation;
  EXPECT_TRUE(smm_ref.contract_ok) << smm_ref.first_violation;
  EXPECT_FALSE(mpm_ref.digest.empty());

  for (const int jobs : {2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(mpm_chaos_sweep(spec, mpm_constraints, mpm_factory, 16,
                              0xC4A05ULL, mpm_limits),
              mpm_ref)
        << "jobs=" << jobs;
    EXPECT_EQ(smm_chaos_sweep(spec, smm_constraints, smm_factory, 16,
                              0xC4A05ULL, smm_limits),
              smm_ref)
        << "jobs=" << jobs;
  }
}

TEST(SweepDeterminism, ExhaustiveEnumerationIsJobCountInvariant) {
  const ProblemSpec spec{1, 2, 2};
  const auto constraints = TimingConstraints::sporadic(
      Duration(1), Duration(0), Duration(2));
  SporadicMpmFactory factory;
  const std::vector<Duration> gaps{Duration(1), Duration(2)};
  const std::vector<Duration> delays{Duration(0), Duration(2)};

  JobsGuard serial(1);
  const ExhaustiveResult reference =
      explore_mpm(spec, constraints, factory, gaps, delays, 500'000);
  EXPECT_TRUE(reference.complete);
  for (const int jobs : {2, 8}) {
    JobsGuard guard(jobs);
    const ExhaustiveResult got =
        explore_mpm(spec, constraints, factory, gaps, delays, 500'000);
    EXPECT_EQ(got, reference) << "jobs=" << jobs;
  }
}

// The budget truncation point must also be job-count invariant: the
// parallel fan-out reconstructs the serial order, so runs stops at exactly
// max_runs and the aggregates match the serial prefix.
TEST(SweepDeterminism, ExhaustiveTruncationIsJobCountInvariant) {
  const ProblemSpec spec{2, 2, 2};
  const auto constraints = TimingConstraints::sporadic(
      Duration(1), Duration(0), Duration(2));
  SporadicMpmFactory factory;
  const std::vector<Duration> gaps{Duration(1), Duration(2)};
  const std::vector<Duration> delays{Duration(0), Duration(1), Duration(2)};

  for (const std::int64_t budget : {7, 50, 333}) {
    JobsGuard serial(1);
    const ExhaustiveResult reference =
        explore_mpm(spec, constraints, factory, gaps, delays, budget);
    EXPECT_EQ(reference.runs, budget);
    for (const int jobs : {2, 8}) {
      JobsGuard guard(jobs);
      const ExhaustiveResult got =
          explore_mpm(spec, constraints, factory, gaps, delays, budget);
      EXPECT_EQ(got, reference) << "jobs=" << jobs << " budget=" << budget;
    }
  }
}

// Observation shards must fold to the same counters the serial sweep
// writes: same total runs/steps for any job count.
TEST(SweepDeterminism, MergedMetricsAreJobCountInvariant) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Duration(1), Duration(2),
                                          Duration(3));
  SemiSyncMpmFactory factory;

  auto counters_at = [&](int jobs) {
    JobsGuard guard(jobs);
    obs::MetricsRegistry metrics;
    obs::Observer observer(&metrics);
    obs::Observer* prev = obs::set_default_observer(&observer);
    (void)mpm_worst_case(spec, constraints, factory, 4);
    obs::set_default_observer(prev);
    return std::pair{metrics.counter("sim.runs").value(),
                     metrics.counter("sim.steps").value()};
  };

  const auto reference = counters_at(1);
  EXPECT_GT(reference.first, 0);
  EXPECT_GT(reference.second, 0);
  EXPECT_EQ(counters_at(2), reference);
  EXPECT_EQ(counters_at(8), reference);
}

}  // namespace
}  // namespace sesp
