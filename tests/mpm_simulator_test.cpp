#include "mpm/mpm_simulator.hpp"

#include <gtest/gtest.h>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/periodic_alg.hpp"
#include "algorithms/mpm/sync_alg.hpp"
#include "session/session_counter.hpp"
#include "timing/admissibility.hpp"

namespace sesp {
namespace {

TEST(MpmSimulatorTest, SyncAlgorithmProducesLockstepTrace) {
  const ProblemSpec spec{/*s=*/3, /*n=*/2, /*b=*/2};
  const auto constraints = TimingConstraints::synchronous(/*c2=*/2, /*d2=*/5);
  SyncMpmFactory factory;
  FixedPeriodScheduler sched(spec.n, constraints.c2);
  FixedDelay delay(constraints.d2);
  MpmSimulator sim(spec, constraints, factory, sched, delay);
  const MpmRunResult run = sim.run();

  EXPECT_TRUE(run.completed);
  EXPECT_FALSE(run.hit_limit);
  EXPECT_EQ(run.compute_steps, 6);  // 2 processes x 3 steps
  EXPECT_EQ(run.messages_sent, 0);
  EXPECT_TRUE(check_admissible(run.trace, constraints));
  EXPECT_EQ(count_sessions(run.trace).sessions, 3);
  EXPECT_EQ(*run.trace.termination_time(), Time(6));  // s * c2
}

TEST(MpmSimulatorTest, EveryComputeStepIsAPortStep) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints = TimingConstraints::synchronous(1, 1);
  SyncMpmFactory factory;
  FixedPeriodScheduler sched(spec.n, constraints.c2);
  FixedDelay delay(constraints.d2);
  const MpmRunResult run =
      MpmSimulator(spec, constraints, factory, sched, delay).run();
  for (const StepRecord& st : run.trace.steps())
    if (st.is_compute()) {
      EXPECT_EQ(st.port, st.process);
    }
}

TEST(MpmSimulatorTest, BroadcastReachesEveryoneIncludingSelf) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints = TimingConstraints::periodic(
      std::vector<Duration>(3, Duration(1)), /*d2=*/2);
  PeriodicMpmFactory factory;
  FixedPeriodScheduler sched(constraints.periods);
  FixedDelay delay(Duration(2));
  const MpmRunResult run =
      MpmSimulator(spec, constraints, factory, sched, delay).run();
  EXPECT_TRUE(run.completed);
  // A(p) broadcasts once per process; each broadcast fans out to n
  // recipients (self included).
  EXPECT_EQ(run.messages_sent, 3 * 3);
  int self_deliveries = 0;
  for (const MessageRecord& m : run.trace.messages())
    if (m.sender == m.recipient && m.delivered()) ++self_deliveries;
  EXPECT_EQ(self_deliveries, 3);
}

TEST(MpmSimulatorTest, MessageDelayIsSendToDeliver) {
  const ProblemSpec spec{2, 2, 2};
  const auto constraints = TimingConstraints::periodic(
      std::vector<Duration>(2, Duration(1)), /*d2=*/Duration(7, 2));
  PeriodicMpmFactory factory;
  FixedPeriodScheduler sched(constraints.periods);
  FixedDelay delay(Duration(7, 2));
  const MpmRunResult run =
      MpmSimulator(spec, constraints, factory, sched, delay).run();
  for (const MessageRecord& m : run.trace.messages()) {
    if (!m.delivered()) continue;
    const Duration d = run.trace.steps()[m.deliver_step].time -
                       run.trace.steps()[m.send_step].time;
    EXPECT_EQ(d, Duration(7, 2));
    if (m.received()) {
      EXPECT_GE(m.receive_step, m.deliver_step);
    }
  }
}

TEST(MpmSimulatorTest, ComputeBeforeDeliverAtEqualTime) {
  // With c2 = 1 and d2 = 1, deliveries land exactly on step times; the
  // adversarial tie-break must make the receiving step the *next* one.
  const ProblemSpec spec{3, 2, 2};
  const auto constraints = TimingConstraints::asynchronous(/*c2=*/1, /*d2=*/1);
  AsyncMpmFactory factory;
  FixedPeriodScheduler sched(spec.n, Duration(1));
  FixedDelay delay(Duration(1));
  const MpmRunResult run =
      MpmSimulator(spec, constraints, factory, sched, delay).run();
  EXPECT_TRUE(run.completed);
  for (const MessageRecord& m : run.trace.messages()) {
    if (!m.received()) continue;
    const Time deliver_t = run.trace.steps()[m.deliver_step].time;
    const Time receive_t = run.trace.steps()[m.receive_step].time;
    EXPECT_GT(receive_t, deliver_t);
  }
}

TEST(MpmSimulatorTest, RunLimitStopsNonTerminatingRun) {
  // A(p) with a huge d2 and a delay adversary that never delivers in time is
  // emulated by a tiny step limit instead.
  const ProblemSpec spec{100000, 2, 2};
  const auto constraints = TimingConstraints::synchronous(1, 1);
  SyncMpmFactory factory;
  FixedPeriodScheduler sched(spec.n, Duration(1));
  FixedDelay delay(Duration(1));
  RunLimits limits;
  limits.max_steps = 50;
  const MpmRunResult run =
      MpmSimulator(spec, constraints, factory, sched, delay).run(limits);
  EXPECT_FALSE(run.completed);
  EXPECT_TRUE(run.hit_limit);
}

TEST(MpmSimulatorTest, StructurallyValidTraces) {
  const ProblemSpec spec{4, 3, 2};
  const auto constraints = TimingConstraints::asynchronous(2, 3);
  AsyncMpmFactory factory;
  UniformGapScheduler sched(Duration(1, 2), Duration(2), /*seed=*/5);
  UniformRandomDelay delay(Duration(0), Duration(3), /*seed=*/6);
  const MpmRunResult run =
      MpmSimulator(spec, constraints, factory, sched, delay).run();
  EXPECT_TRUE(run.completed);
  EXPECT_FALSE(run.trace.structural_error().has_value());
  EXPECT_TRUE(check_admissible(run.trace, constraints));
}

}  // namespace
}  // namespace sesp
