#include "timing/admissibility.hpp"

#include <gtest/gtest.h>

#include "session/verifier.hpp"

namespace sesp {
namespace {

StepRecord step(ProcessId p, const Time& t) {
  StepRecord st;
  st.kind = StepKind::kCompute;
  st.process = p;
  st.time = t;
  return st;
}

TimedComputation two_proc_trace(const std::vector<std::pair<ProcessId, Time>>&
                                    entries,
                                Substrate sub = Substrate::kSharedMemory) {
  TimedComputation tc(sub, 2, 2);
  for (const auto& [p, t] : entries) tc.append(step(p, t));
  return tc;
}

TEST(AdmissibilityTest, SynchronousExactGapsAccepted) {
  const auto tc = two_proc_trace(
      {{0, Time(2)}, {1, Time(2)}, {0, Time(4)}, {1, Time(4)}});
  EXPECT_TRUE(check_admissible(tc, TimingConstraints::synchronous(2)));
}

TEST(AdmissibilityTest, SynchronousRejectsFirstStepOffGrid) {
  // The first step must also be exactly c2 after time 0.
  const auto tc = two_proc_trace({{0, Time(1)}, {1, Time(2)}});
  const auto rep = check_admissible(tc, TimingConstraints::synchronous(2));
  EXPECT_FALSE(rep.admissible);
  EXPECT_NE(rep.violation.find("synchronous"), std::string::npos);
}

TEST(AdmissibilityTest, SynchronousRejectsJitter) {
  const auto tc = two_proc_trace({{0, Time(2)}, {0, Time(5)}});
  EXPECT_FALSE(check_admissible(tc, TimingConstraints::synchronous(2)));
}

TEST(AdmissibilityTest, PeriodicPerProcessPeriods) {
  auto constraints = TimingConstraints::periodic({Duration(2), Duration(3)});
  const auto ok = two_proc_trace(
      {{0, Time(2)}, {1, Time(3)}, {0, Time(4)}, {1, Time(6)}});
  EXPECT_TRUE(check_admissible(ok, constraints));
  const auto bad = two_proc_trace({{0, Time(2)}, {1, Time(2)}});
  EXPECT_FALSE(check_admissible(bad, constraints));
}

TEST(AdmissibilityTest, PeriodicNeedsPeriodPerProcess) {
  auto constraints = TimingConstraints::periodic({Duration(2)});
  const auto tc = two_proc_trace({{0, Time(2)}, {1, Time(2)}});
  const auto rep = check_admissible(tc, constraints);
  EXPECT_FALSE(rep.admissible);
  EXPECT_NE(rep.violation.find("fewer periods"), std::string::npos);
}

// A process without a period of its own must fail the proof, not index
// past the period list: first on check_admissible's fast path, whose first
// step here is by the process that lacks a period...
TEST(AdmissibilityTest, PeriodicMissingPeriodOnFirstStep) {
  auto constraints = TimingConstraints::periodic({Duration(2)});
  const auto tc = two_proc_trace({{1, Time(2)}, {0, Time(2)}});
  const auto rep = check_admissible(tc, constraints);
  EXPECT_FALSE(rep.admissible);
  EXPECT_EQ(rep.violation, "periodic: fewer periods than processes");
}

// ...then through verify(), whose monitor sees every step of the trace.
TEST(AdmissibilityTest, PeriodicMissingPeriodThroughVerify) {
  auto constraints = TimingConstraints::periodic({Duration(2)});
  const auto tc = two_proc_trace({{0, Time(2)}, {1, Time(2)}, {1, Time(4)}});
  ProblemSpec spec;
  spec.s = 1;
  spec.n = 2;
  const Verdict v = verify(tc, spec, constraints);
  EXPECT_FALSE(v.admissible);
  EXPECT_EQ(v.admissibility_violation,
            "periodic: fewer periods than processes");
}

TEST(AdmissibilityTest, SemiSynchronousWindow) {
  auto constraints = TimingConstraints::semi_synchronous(1, 3);
  EXPECT_TRUE(check_admissible(
      two_proc_trace({{0, Time(1)}, {1, Time(3)}, {0, Time(4)}}),
      constraints));
  // Gap below c1.
  EXPECT_FALSE(check_admissible(
      two_proc_trace({{0, Time(1)}, {0, Time(3, 2)}}), constraints));
  // Gap above c2.
  EXPECT_FALSE(check_admissible(
      two_proc_trace({{0, Time(1)}, {0, Time(5)}}), constraints));
}

TEST(AdmissibilityTest, SporadicOnlyLowerBound) {
  auto constraints = TimingConstraints::sporadic(2, 0, 10);
  EXPECT_TRUE(check_admissible(
      two_proc_trace({{0, Time(2)}, {0, Time(1000)}, {1, Time(1000)}}),
      constraints));
  EXPECT_FALSE(check_admissible(
      two_proc_trace({{0, Time(1)}}), constraints));
}

TEST(AdmissibilityTest, AsynchronousSmmUnconstrained) {
  auto constraints = TimingConstraints::asynchronous();
  EXPECT_TRUE(check_admissible(
      two_proc_trace({{0, Time(1, 100)}, {0, Time(1'000'000)}}),
      constraints));
}

TEST(AdmissibilityTest, AsynchronousMpmBoundedAbove) {
  auto constraints = TimingConstraints::asynchronous(/*c2=*/2, /*d2=*/5);
  EXPECT_TRUE(check_admissible(
      two_proc_trace({{0, Time(1)}, {1, Time(2)}},
                     Substrate::kMessagePassing),
      constraints));
  EXPECT_FALSE(check_admissible(
      two_proc_trace({{0, Time(3)}}, Substrate::kMessagePassing),
      constraints));
}

TimedComputation trace_with_message(const Duration& delay) {
  TimedComputation tc(Substrate::kMessagePassing, 2, 2);
  tc.append(step(0, Time(1)));
  StepRecord d;
  d.kind = StepKind::kDeliver;
  d.process = kNetworkProcess;
  d.time = Time(1) + delay;
  d.delivered = 0;
  tc.append(d);
  MessageRecord m;
  m.sender = 0;
  m.recipient = 1;
  m.send_step = 0;
  m.deliver_step = 1;
  tc.append_message(m);
  return tc;
}

TEST(AdmissibilityTest, SporadicDelayWindow) {
  auto constraints = TimingConstraints::sporadic(/*c1=*/1, /*d1=*/2, /*d2=*/4);
  EXPECT_TRUE(check_admissible(trace_with_message(Duration(3)), constraints));
  EXPECT_TRUE(check_admissible(trace_with_message(Duration(2)), constraints));
  EXPECT_TRUE(check_admissible(trace_with_message(Duration(4)), constraints));
  EXPECT_FALSE(check_admissible(trace_with_message(Duration(1)), constraints));
  EXPECT_FALSE(check_admissible(trace_with_message(Duration(5)), constraints));
}

TEST(AdmissibilityTest, SynchronousDelayMustBeExact) {
  auto constraints = TimingConstraints::synchronous(/*c2=*/1, /*d2=*/4);
  EXPECT_TRUE(check_admissible(trace_with_message(Duration(4)), constraints));
  EXPECT_FALSE(check_admissible(trace_with_message(Duration(3)), constraints));
}

TEST(AdmissibilityTest, UndeliveredMessagesAllowed) {
  TimedComputation tc(Substrate::kMessagePassing, 2, 2);
  tc.append(step(0, Time(1)));
  MessageRecord m;
  m.sender = 0;
  m.recipient = 1;
  m.send_step = 0;
  tc.append_message(m);
  EXPECT_TRUE(
      check_admissible(tc, TimingConstraints::sporadic(1, 0, 100)));
}

TEST(AdmissibilityTest, InvalidConstraintsRejected) {
  TimingConstraints bad = TimingConstraints::semi_synchronous(1, 3);
  bad.c1 = 0;
  const auto tc = two_proc_trace({{0, Time(1)}});
  const auto rep = check_admissible(tc, bad);
  EXPECT_FALSE(rep.admissible);
  EXPECT_NE(rep.violation.find("invalid constraints"), std::string::npos);
}

TEST(AdmissibilityTest, StructuralErrorsSurface) {
  TimedComputation tc(Substrate::kSharedMemory, 2, 2);
  auto s0 = step(0, Time(2));
  s0.idle_after = true;
  tc.append(s0);
  auto s1 = step(0, Time(4));
  s1.idle_after = false;
  tc.append(s1);
  const auto rep = check_admissible(tc, TimingConstraints::synchronous(2));
  EXPECT_FALSE(rep.admissible);
  EXPECT_NE(rep.violation.find("structural"), std::string::npos);
}

}  // namespace
}  // namespace sesp
