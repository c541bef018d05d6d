#include "smm/smm_simulator.hpp"

#include <gtest/gtest.h>

#include <map>

#include "adversary/step_schedulers.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/sync_alg.hpp"
#include "session/session_counter.hpp"
#include "timing/admissibility.hpp"

namespace sesp {
namespace {

TEST(SmmSimulatorTest, SyncAlgorithmLockstep) {
  const ProblemSpec spec{/*s=*/3, /*n=*/4, /*b=*/3};
  const auto constraints = TimingConstraints::synchronous(/*c2=*/2);
  SyncSmmFactory factory;
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  FixedPeriodScheduler sched(total, constraints.c2);
  SmmSimulator sim(spec, constraints, factory, sched);
  const SmmRunResult run = sim.run();

  EXPECT_TRUE(run.completed);
  EXPECT_TRUE(check_admissible(run.trace, constraints));
  EXPECT_EQ(count_sessions(run.trace).sessions, 3);
  EXPECT_EQ(*run.trace.termination_time(), Time(6));  // s * c2
}

TEST(SmmSimulatorTest, PortStepsOnlyOnPortVariable) {
  const ProblemSpec spec{2, 3, 3};
  const auto constraints = TimingConstraints::synchronous(1);
  SyncSmmFactory factory;
  FixedPeriodScheduler sched(smm_total_processes(spec.n, spec.b), Duration(1));
  const SmmRunResult run =
      SmmSimulator(spec, constraints, factory, sched).run();
  std::map<PortIndex, VarId> port_var;
  for (const StepRecord& st : run.trace.steps()) {
    if (st.port == kNoPort) continue;
    EXPECT_EQ(st.port, st.process);  // port steps by the port process only
    auto [it, inserted] = port_var.try_emplace(st.port, st.var);
    if (!inserted) {
      EXPECT_EQ(it->second, st.var);  // always the same variable
    }
  }
  EXPECT_EQ(port_var.size(), 3u);  // one port variable per port process
}

TEST(SmmSimulatorTest, EveryStepTouchesExactlyOneVariable) {
  const ProblemSpec spec{2, 5, 3};
  const auto constraints = TimingConstraints::periodic(std::vector<Duration>(
      static_cast<std::size_t>(smm_total_processes(spec.n, spec.b)),
      Duration(1)));
  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(constraints.periods);
  const SmmRunResult run =
      SmmSimulator(spec, constraints, factory, sched).run();
  EXPECT_TRUE(run.completed);
  for (const StepRecord& st : run.trace.steps()) {
    ASSERT_TRUE(st.is_compute());
    EXPECT_NE(st.var, kNoVar);
  }
}

TEST(SmmSimulatorTest, GossipPropagatesThroughTree) {
  // A(p) only terminates if every process's "done" fact reaches every other
  // leaf through the relay tree, so completion proves propagation for a
  // non-trivial (n, b).
  const ProblemSpec spec{3, 9, 3};
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const auto constraints = TimingConstraints::periodic(
      std::vector<Duration>(static_cast<std::size_t>(total), Duration(1)));
  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(constraints.periods);
  const SmmRunResult run =
      SmmSimulator(spec, constraints, factory, sched).run();
  EXPECT_TRUE(run.completed);
  EXPECT_GE(count_sessions(run.trace).sessions, 3);
  EXPECT_GT(run.num_relays, 0);
  EXPECT_GT(run.tree_depth, 0);
}

TEST(SmmSimulatorTest, PropagationLatencyWithinBound) {
  // Measure: time from the first leaf's "done" advertisement until the last
  // leaf idles must fit inside the documented tree latency bound plus the
  // algorithm's own port steps.
  const ProblemSpec spec{2, 16, 3};
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const auto constraints = TimingConstraints::periodic(
      std::vector<Duration>(static_cast<std::size_t>(total), Duration(1)));
  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(constraints.periods);
  const SmmRunResult run =
      SmmSimulator(spec, constraints, factory, sched).run();
  ASSERT_TRUE(run.completed);
  // s*c_max for the port steps plus (latency + 6 bracketing steps) * c_max.
  const Time bound = Ratio(spec.s) * Duration(1) +
                     Ratio(run.tree_latency_steps + 6) * Duration(1);
  EXPECT_LE(*run.trace.termination_time(), bound);
}

TEST(SmmSimulatorTest, SingleProcessInstance) {
  const ProblemSpec spec{4, 1, 2};
  const auto constraints = TimingConstraints::periodic({Duration(3)});
  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(1, Duration(3));
  const SmmRunResult run =
      SmmSimulator(spec, constraints, factory, sched).run();
  EXPECT_TRUE(run.completed);
  EXPECT_GE(count_sessions(run.trace).sessions, 4);
  EXPECT_EQ(run.num_relays, 0);
}

TEST(SmmSimulatorTest, RunLimitGuards) {
  const ProblemSpec spec{1'000'000, 2, 2};
  const auto constraints = TimingConstraints::synchronous(1);
  SyncSmmFactory factory;
  FixedPeriodScheduler sched(smm_total_processes(spec.n, spec.b), Duration(1));
  RunLimits limits;
  limits.max_steps = 100;
  const SmmRunResult run =
      SmmSimulator(spec, constraints, factory, sched).run(limits);
  EXPECT_FALSE(run.completed);
  EXPECT_TRUE(run.hit_limit);
}

TEST(SmmSimulatorTest, DigestsChainPerVariable) {
  const ProblemSpec spec{2, 4, 3};
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const auto constraints = TimingConstraints::periodic(
      std::vector<Duration>(static_cast<std::size_t>(total), Duration(1)));
  PeriodicSmmFactory factory;
  FixedPeriodScheduler sched(constraints.periods);
  const SmmRunResult run =
      SmmSimulator(spec, constraints, factory, sched).run();
  std::map<VarId, std::uint64_t> last;
  for (const StepRecord& st : run.trace.steps()) {
    if (st.var == kNoVar) continue;
    const auto it = last.find(st.var);
    if (it != last.end()) {
      EXPECT_EQ(it->second, st.value_before_digest);
    }
    last[st.var] = st.value_after_digest;
  }
}

}  // namespace
}  // namespace sesp
