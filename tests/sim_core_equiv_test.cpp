// Differential equivalence suite for the simulator core rewrite
// (docs/performance.md): the calendar-queue/SoA executors must be
// observationally identical to the recorded-trace semantics — byte-identical
// traces run to run, replay-exact schedules, verdicts stable through a text
// round-trip, and job-count-invariant sweep digests — across every timing
// model, both substrates, random fault plans, and the event-time
// distributions that are adversarial for a calendar queue (same-time storms,
// power-law gaps, denominator blowups past the interned-Ratio inline range).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/p2p/knowledge_algs.hpp"
#include "conformance/generator.hpp"
#include "conformance/reference.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "mpm/mpm_simulator.hpp"
#include "model/trace_io.hpp"
#include "mpm/topology.hpp"
#include "session/round_counter.hpp"
#include "session/session_counter.hpp"
#include "session/verdict_monitor.hpp"
#include "session/verifier.hpp"
#include "smm/smm_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"
#include "support/test_support.hpp"
#include "timing/admissibility.hpp"
#include "util/packed_ratio.hpp"
#include "util/rng.hpp"

namespace sesp {
namespace {

using conformance::CaseDescriptor;
using test_support::JobsGuard;

void expect_verdict_eq(const Verdict& a, const Verdict& b) {
  EXPECT_EQ(a.admissible, b.admissible);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.all_ports_idle, b.all_ports_idle);
  EXPECT_EQ(a.solves, b.solves);
  EXPECT_EQ(a.termination_time, b.termination_time);
  EXPECT_EQ(a.rounds.full_rounds, b.rounds.full_rounds);
  EXPECT_EQ(a.rounds.partial_tail, b.rounds.partial_tail);
  EXPECT_EQ(a.gamma, b.gamma);
}

// Replays the trace's recorded schedule through the matching simulator and
// requires step-by-step agreement.
void expect_replay_exact(const CaseDescriptor& c, const TimedComputation& t) {
  const std::string name = conformance::resolved_algorithm(c);
  if (c.substrate == Substrate::kSharedMemory) {
    const auto factory = conformance::make_smm_factory(name);
    ASSERT_TRUE(factory) << name;
    const ReplayReport rep = replay_smm(t, c.spec, c.constraints, *factory);
    EXPECT_TRUE(rep.match) << c.to_string() << ": " << rep.detail;
  } else {
    const auto factory = conformance::make_mpm_factory(name);
    ASSERT_TRUE(factory) << name;
    const ReplayReport rep = replay_mpm(t, c.spec, c.constraints, *factory);
    EXPECT_TRUE(rep.match) << c.to_string() << ": " << rep.detail;
  }
}

// --- Conformance sweep: 5 models x 2 substrates -----------------------------

TEST(SimCoreEquiv, ConformanceCellsAreByteStableAndReplayExact) {
  for (const TimingModel model : conformance::all_models()) {
    for (const Substrate substrate : conformance::all_substrates()) {
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const CaseDescriptor c = conformance::generate_case(
            model, substrate, conformance::case_seed(31, 7, seed));
        const conformance::GeneratedRun a = conformance::run_case(c);
        const conformance::GeneratedRun b = conformance::run_case(c);
        ASSERT_TRUE(a.ok) << c.to_string() << ": " << a.error;
        ASSERT_TRUE(b.ok) << c.to_string() << ": " << b.error;
        ASSERT_TRUE(a.trace.has_value());
        ASSERT_TRUE(b.trace.has_value());

        // Two executions of one descriptor are byte-identical.
        const std::string text = to_text(*a.trace);
        EXPECT_EQ(text, to_text(*b.trace)) << c.to_string();
        expect_verdict_eq(a.verdict, b.verdict);

        // The recorded schedule replays to the same computation.
        expect_replay_exact(c, *a.trace);

        // The verdict survives a text round-trip of the trace: the fused
        // verifier sees exactly what the original pass saw.
        std::string error;
        const std::optional<TimedComputation> parsed =
            trace_from_text(text, &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        expect_verdict_eq(a.verdict,
                          verify(*parsed, c.spec, c.constraints));
      }
    }
  }
}

// The fused single-pass verdict (session/VerdictMonitor) must be
// value-identical to the standalone routines it replaced, on every cell.
TEST(SimCoreEquiv, FusedVerdictMatchesStandaloneCounters) {
  for (const TimingModel model : conformance::all_models()) {
    for (const Substrate substrate : conformance::all_substrates()) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const CaseDescriptor c = conformance::generate_case(
            model, substrate, conformance::case_seed(17, 3, seed));
        const conformance::GeneratedRun run = conformance::run_case(c);
        ASSERT_TRUE(run.ok) << c.to_string() << ": " << run.error;
        ASSERT_TRUE(run.trace.has_value());
        const TimedComputation& t = *run.trace;
        const Verdict v = verify(t, c.spec, c.constraints);
        EXPECT_EQ(v.sessions, count_sessions(t).sessions) << c.to_string();
        EXPECT_EQ(v.all_ports_idle, t.all_ports_idle()) << c.to_string();
        EXPECT_EQ(v.termination_time, t.termination_time()) << c.to_string();
        const RoundDecomposition rounds = count_rounds(t);
        EXPECT_EQ(v.rounds.full_rounds, rounds.full_rounds) << c.to_string();
        EXPECT_EQ(v.rounds.partial_tail, rounds.partial_tail)
            << c.to_string();
        EXPECT_EQ(v.gamma, t.gamma()) << c.to_string();
      }
    }
  }
}

// --- Fault plans -------------------------------------------------------------

TEST(SimCoreEquiv, MpmFaultPlansReproduceByteIdenticalRuns) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2), Ratio(1));
  const auto factory = conformance::make_mpm_factory("semisync");
  ASSERT_TRUE(factory);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, spec.n);
    const auto once = [&] {
      UniformGapScheduler sched(Ratio(1), Ratio(2), seed);
      FixedDelay delay{Duration(1)};
      FaultInjector faults(plan);
      return run_mpm_once(spec, constraints, *factory, sched, delay,
                          RunLimits{}, &faults);
    };
    const MpmOutcome a = once();
    const MpmOutcome b = once();
    EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace))
        << "seed=" << seed << " plan=" << plan.to_string();
    EXPECT_EQ(a.run.completed, b.run.completed);
    EXPECT_EQ(a.run.crashed, b.run.crashed);
    EXPECT_EQ(a.run.error.has_value(), b.run.error.has_value());
    expect_verdict_eq(a.verdict, b.verdict);
  }
}

TEST(SimCoreEquiv, SmmFaultPlansReproduceByteIdenticalRuns) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2));
  const auto factory = conformance::make_smm_factory("semisync");
  ASSERT_TRUE(factory);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, spec.n);
    const auto once = [&] {
      UniformGapScheduler sched(Ratio(1), Ratio(2), seed);
      FaultInjector faults(plan);
      return run_smm_once(spec, constraints, *factory, sched, RunLimits{},
                          &faults);
    };
    const SmmOutcome a = once();
    const SmmOutcome b = once();
    EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace))
        << "seed=" << seed << " plan=" << plan.to_string();
    EXPECT_EQ(a.run.completed, b.run.completed);
    EXPECT_EQ(a.run.crashed, b.run.crashed);
    expect_verdict_eq(a.verdict, b.verdict);
  }
}

TEST(SimCoreEquiv, ChaosSweepReportsAreJobCountInvariant) {
  const ProblemSpec spec{2, 3, 2};
  const auto mpm_constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2), Ratio(1));
  const auto smm_constraints =
      TimingConstraints::semi_synchronous(Ratio(1), Ratio(2));
  const auto mpm_factory = conformance::make_mpm_factory("semisync");
  const auto smm_factory = conformance::make_smm_factory("semisync");
  ASSERT_TRUE(mpm_factory);
  ASSERT_TRUE(smm_factory);

  ChaosReport mpm_ref, smm_ref;
  {
    JobsGuard guard(1);
    mpm_ref = mpm_chaos_sweep(spec, mpm_constraints, *mpm_factory, 16);
    smm_ref = smm_chaos_sweep(spec, smm_constraints, *smm_factory, 16);
  }
  for (const int jobs : {2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(mpm_chaos_sweep(spec, mpm_constraints, *mpm_factory, 16),
              mpm_ref)
        << "jobs=" << jobs;
    EXPECT_EQ(smm_chaos_sweep(spec, smm_constraints, *smm_factory, 16),
              smm_ref)
        << "jobs=" << jobs;
  }
}

// --- Adversarial event-time distributions ------------------------------------

// Synchronous period-1 schedule: every tick lands all n computes (and, one
// delay later, all n^2 deliveries) in a single calendar bucket — the
// same-time storm that dominates bench_faults.
TEST(SimCoreEquiv, SameTimeStormMatchesReplayOnBothSubstrates) {
  const ProblemSpec spec{3, 4, 2};
  {
    const auto constraints = TimingConstraints::synchronous(1, 1);
    const auto factory = conformance::make_mpm_factory("sync");
    ASSERT_TRUE(factory);
    const auto once = [&] {
      FixedPeriodScheduler sched(spec.n, Duration(1));
      FixedDelay delay{Duration(1)};
      return run_mpm_once(spec, constraints, *factory, sched, delay);
    };
    const MpmOutcome a = once();
    const MpmOutcome b = once();
    ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
    EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
    EXPECT_TRUE(a.verdict.solves);
    EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
    const auto rep = replay_mpm(a.run.trace, spec, constraints, *factory);
    EXPECT_TRUE(rep.match) << rep.detail;
  }
  {
    const auto constraints = TimingConstraints::synchronous(1);
    const auto factory = conformance::make_smm_factory("sync");
    ASSERT_TRUE(factory);
    const auto once = [&] {
      FixedPeriodScheduler sched(smm_total_processes(spec.n, spec.b),
                                 Duration(1));
      return run_smm_once(spec, constraints, *factory, sched);
    };
    const SmmOutcome a = once();
    const SmmOutcome b = once();
    ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
    EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
    EXPECT_TRUE(a.verdict.solves);
    EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
    const auto rep = replay_smm(a.run.trace, spec, constraints, *factory);
    EXPECT_TRUE(rep.match) << rep.detail;
  }
}

// Gaps of 2^k spread events over exponentially growing distances — the
// distribution where a naive bucket array degenerates and the queue must
// fall back to its comparison heap.
class PowerLawScheduler final : public StepScheduler {
 public:
  explicit PowerLawScheduler(std::uint64_t seed) : rng_(seed) {}
  Time next_step_time(ProcessId, std::optional<Time> prev,
                      std::int64_t) override {
    const Time base = prev ? *prev : Time(0);
    return base + Duration(std::int64_t{1} << rng_.next_below(7));
  }

 private:
  Rng rng_;
};

TEST(SimCoreEquiv, PowerLawGapScheduleIsReplayExact) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::sporadic(Ratio(1), Ratio(1), Ratio(1));
  const auto factory = conformance::make_mpm_factory("sporadic");
  ASSERT_TRUE(factory);
  const auto once = [&] {
    PowerLawScheduler sched(0x9e3779b97f4a7c15ULL);
    FixedDelay delay{Duration(1)};
    return run_mpm_once(spec, constraints, *factory, sched, delay);
  };
  const MpmOutcome a = once();
  const MpmOutcome b = once();
  ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
  EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
  EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
  const auto rep = replay_mpm(a.run.trace, spec, constraints, *factory);
  EXPECT_TRUE(rep.match) << rep.detail;
}

// Periods of 3 + 1/q with q past the PackedRatio inline-denominator limit:
// every event time takes the interned-pool path of the calendar queue's
// bucket index, and each process pins a distinct pooled key.
TEST(SimCoreEquiv, DenominatorBlowupsTakeThePooledPathAndStayExact) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints =
      TimingConstraints::sporadic(Ratio(1), Ratio(1), Ratio(1));
  const auto factory = conformance::make_mpm_factory("sporadic");
  ASSERT_TRUE(factory);
  std::vector<Duration> periods;
  for (std::int32_t p = 0; p < spec.n; ++p) {
    const std::int64_t q = PackedRatio::kDenMax + 1 + p;
    periods.push_back(Duration(3 * q + 1, q));  // 3 + 1/q, den > inline max
    ASSERT_FALSE(PackedRatio::fits_inline(periods.back().num(),
                                          periods.back().den()));
  }
  const auto once = [&] {
    FixedPeriodScheduler sched(periods);
    FixedDelay delay{Duration(1)};
    return run_mpm_once(spec, constraints, *factory, sched, delay);
  };
  const MpmOutcome a = once();
  const MpmOutcome b = once();
  ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
  EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
  EXPECT_TRUE(a.verdict.solves);
  EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
  const auto rep = replay_mpm(a.run.trace, spec, constraints, *factory);
  EXPECT_TRUE(rep.match) << rep.detail;
}

// --- P2P substrate -----------------------------------------------------------

TEST(SimCoreEquiv, P2pSameTimeStormIsDeterministicAndSolves) {
  const ProblemSpec spec{3, 4, 2};
  const auto constraints = TimingConstraints::synchronous(2, 4);
  const Topology topo = Topology::complete(spec.n);
  const P2pSyncFactory factory;
  const auto once = [&] {
    FixedPeriodScheduler sched(spec.n, Duration(2));
    FixedDelay delay{Duration(4)};
    return run_p2p_once(spec, constraints, topo, factory, sched, delay);
  };
  const P2pOutcome a = once();
  const P2pOutcome b = once();
  ASSERT_TRUE(a.run.completed) << to_text(a.run.trace);
  EXPECT_TRUE(a.verdict.admissible) << a.verdict.admissibility_violation;
  EXPECT_TRUE(a.verdict.solves);
  EXPECT_EQ(to_text(a.run.trace), to_text(b.run.trace));
  expect_verdict_eq(a.verdict, b.verdict);
}

// --- Online verdict vs post-hoc verify() -------------------------------------
//
// The verdict-only runs of the worst-case drivers (docs/performance.md
// "Verdict-only runs") must agree with full-trace verification field by
// field. The oracle lives here, in test code: each run is executed twice
// from identical fresh inputs — once verdict-only, once recording — and the
// online monitor is compared with verify() and check_admissible() on the
// recorded trace.

// Run facts both modes must share (the WorstSlot's run half, plus counts).
template <typename RunResult>
void expect_same_run(const RunResult& online, const RunResult& traced,
                     const std::string& where) {
  EXPECT_EQ(online.completed, traced.completed) << where;
  EXPECT_EQ(online.hit_limit, traced.hit_limit) << where;
  EXPECT_EQ(online.compute_steps, traced.compute_steps) << where;
  EXPECT_EQ(online.crashed, traced.crashed) << where;
  ASSERT_EQ(online.error.has_value(), traced.error.has_value()) << where;
  if (online.error) {
    EXPECT_EQ(online.error->to_string(), traced.error->to_string()) << where;
  }
  EXPECT_TRUE(online.trace.steps().empty()) << where;
  EXPECT_TRUE(online.trace.messages().empty()) << where;
  ASSERT_TRUE(online.verdict.has_value()) << where;
  EXPECT_FALSE(traced.verdict.has_value()) << where;
}

// The online verdict against verify() on the recorded trace. Returns true
// when the monitor settled the verdict alone (no fallback needed).
bool expect_online_matches(const Verdict& online,
                           const TimedComputation& trace,
                           const ProblemSpec& spec,
                           const TimingConstraints& constraints,
                           const std::string& where) {
  obs::Observer inert;
  const Verdict post = verify(trace, spec, constraints, &inert);
  EXPECT_EQ(online.sessions, post.sessions) << where;
  EXPECT_EQ(online.all_ports_idle, post.all_ports_idle) << where;
  EXPECT_EQ(online.solves, post.solves) << where;
  EXPECT_EQ(online.termination_time, post.termination_time) << where;
  EXPECT_EQ(online.rounds.full_rounds, post.rounds.full_rounds) << where;
  EXPECT_EQ(online.rounds.partial_tail, post.rounds.partial_tail) << where;
  EXPECT_EQ(online.gamma, post.gamma) << where;
  // The monitor never names a violation; only check_admissible does.
  EXPECT_TRUE(online.admissibility_violation.empty()) << where;
  EXPECT_FALSE(online.violation_site.has_value()) << where;

  // Never settled while a checker finds a violation — and, on simulator
  // traces (whose message plumbing holds by construction), never a fallback
  // for an admissible run either. The judge is the conformance reference,
  // which shares no code with the monitor (check_admissible's fast path
  // *is* the monitor's admissibility half, so it could not catch a bug
  // there).
  const bool admissible =
      !conformance::reference_check_admissible(trace, constraints)
           .has_value();
  EXPECT_EQ(post.admissible, admissible)
      << where << ": " << post.admissibility_violation;
  EXPECT_EQ(online.admissible, admissible)
      << where << ": " << post.admissibility_violation;
  if (online.admissible) expect_verdict_eq(online, post);
  return online.admissible;
}

struct ModelCase {
  std::string model;  // factory name; SMM sporadic runs the async algorithm
  TimingModel timing;
};

const ModelCase kModels[] = {
    {"sync", TimingModel::kSynchronous},
    {"periodic", TimingModel::kPeriodic},
    {"semisync", TimingModel::kSemiSynchronous},
    {"sporadic", TimingModel::kSporadic},
    {"async", TimingModel::kAsynchronous},
};

// Constraints as sesp_cli builds them from --c1=1 --c2=3 --d1=1 --d2=4.
TimingConstraints cli_constraints(TimingModel model, std::int32_t total) {
  switch (model) {
    case TimingModel::kSynchronous:
      return TimingConstraints::synchronous(3, 4);
    case TimingModel::kPeriodic: {
      std::vector<Duration> periods;
      for (std::int32_t i = 0; i < total; ++i)
        periods.push_back(Ratio(1) +
                          Ratio(2) * (total > 1 ? Ratio(i, total - 1) : 0));
      return TimingConstraints::periodic(periods, 4);
    }
    case TimingModel::kSemiSynchronous:
      return TimingConstraints::semi_synchronous(1, 3, 4);
    case TimingModel::kSporadic:
      return TimingConstraints::sporadic(1, 1, 4);
    case TimingModel::kAsynchronous:
      return TimingConstraints::asynchronous(3, 4);
  }
  return TimingConstraints{};
}

// Reference worst case from full-trace verification: the fold rules of the
// worst-case drivers, restated over recorded runs and verify().
struct ReferenceFold {
  WorstCase wc;

  template <typename RunResult>
  void add(const std::string& label, const RunResult& run, const Verdict& v) {
    WorstCase& w = wc;
    const std::optional<std::string> error =
        run.error ? std::optional<std::string>(run.error->to_string())
                  : std::nullopt;
    ++w.runs;
    w.any_hit_limit = w.any_hit_limit || run.hit_limit;
    if (!v.admissible || !v.solves || run.hit_limit || error) {
      w.all_solved = w.all_solved && v.solves && !run.hit_limit && !error;
      w.all_admissible = w.all_admissible && v.admissible;
      if (w.first_failure.empty()) {
        w.first_failure = label + ": ";
        if (!v.admissible)
          w.first_failure +=
              "inadmissible (" + v.admissibility_violation + ")";
        else if (error)
          w.first_failure += *error;
        else if (run.hit_limit)
          w.first_failure += "hit run limit";
        else
          w.first_failure +=
              "solved=false (sessions=" + std::to_string(v.sessions) + ")";
      }
    }
    if (run.hit_limit && w.first_limit_hit.empty())
      w.first_limit_hit = label + ": " + (error ? *error : "hit run limit");
    if (w.runs == 1 || v.sessions < w.min_sessions) w.min_sessions = v.sessions;
    if (run.completed && v.termination_time &&
        w.max_termination < *v.termination_time)
      w.max_termination = *v.termination_time;
    if (w.max_rounds < v.rounds.rounds_ceiling())
      w.max_rounds = v.rounds.rounds_ceiling();
    if (v.gamma && w.max_gamma < *v.gamma) w.max_gamma = *v.gamma;
  }
};

// Every member of one MPM family, online vs recorded; returns the
// full-trace reference fold.
WorstCase mpm_family_differential(const ProblemSpec& spec,
                                  const TimingConstraints& constraints,
                                  const MpmAlgorithmFactory& factory,
                                  std::uint64_t seed,
                                  const RunLimits& limits,
                                  const std::string& where) {
  ReferenceFold ref;
  for (const FamilyMember& member :
       mpm_worst_case_family(spec, constraints, 4, seed)) {
    const std::string at = where + " " + member.label;
    const auto run = [&](Recording recording) {
      Adversary adv = member.make();
      return MpmSimulator(spec, constraints, factory, *adv.sched, *adv.delay)
          .run(limits, recording);
    };
    const MpmRunResult online = run(Recording::kVerdictOnly);
    const MpmRunResult traced = run(Recording::kTrace);
    expect_same_run(online, traced, at);
    EXPECT_EQ(online.messages_sent, traced.messages_sent) << at;
    if (online.verdict)
      expect_online_matches(*online.verdict, traced.trace, spec,
                            constraints, at);
    ref.add(member.label, traced,
            verify(traced.trace, spec, constraints));
  }
  return ref.wc;
}

WorstCase smm_family_differential(const ProblemSpec& spec,
                                  const TimingConstraints& constraints,
                                  const SmmAlgorithmFactory& factory,
                                  std::uint64_t seed,
                                  const RunLimits& limits,
                                  const std::string& where) {
  ReferenceFold ref;
  for (const FamilyMember& member :
       smm_worst_case_family(spec, constraints, 4, seed)) {
    const std::string at = where + " " + member.label;
    const auto run = [&](Recording recording) {
      Adversary adv = member.make();
      return SmmSimulator(spec, constraints, factory, *adv.sched)
          .run(limits, recording);
    };
    const SmmRunResult online = run(Recording::kVerdictOnly);
    const SmmRunResult traced = run(Recording::kTrace);
    expect_same_run(online, traced, at);
    if (online.verdict)
      expect_online_matches(*online.verdict, traced.trace, spec,
                            constraints, at);
    ref.add(member.label, traced,
            verify(traced.trace, spec, constraints));
  }
  return ref.wc;
}

TEST(OnlineVerdict, EveryWorstCaseMemberMatchesPostHocVerification) {
  for (const ModelCase& m : kModels) {
    const auto mpm_factory = conformance::make_mpm_factory(m.model);
    const auto smm_factory = conformance::make_smm_factory(
        m.timing == TimingModel::kSporadic ? "async" : m.model);
    ASSERT_TRUE(mpm_factory && smm_factory) << m.model;
    for (const std::int32_t size : {2, 4, 7}) {
      const ProblemSpec spec{size, size, 2};
      for (const std::uint64_t seed : {1ULL, 5ULL, 90001ULL}) {
        const std::string where = m.model + " s=n=" + std::to_string(size) +
                                  " seed=" + std::to_string(seed);
        const auto mpm_c = cli_constraints(m.timing, size);
        EXPECT_EQ(mpm_worst_case(spec, mpm_c, *mpm_factory, 4, seed),
                  mpm_family_differential(spec, mpm_c, *mpm_factory, seed,
                                          RunLimits{}, "mpm " + where));
        const auto smm_c = cli_constraints(
            m.timing, smm_total_processes(spec.n, spec.b));
        EXPECT_EQ(smm_worst_case(spec, smm_c, *smm_factory, 4, seed),
                  smm_family_differential(spec, smm_c, *smm_factory, seed,
                                          RunLimits{}, "smm " + where));
      }
    }
  }
}

// A broken algorithm: the family's runs stay admissible but fail to solve,
// so the online verdict must reproduce the "solved=false" failure text.
TEST(OnlineVerdict, BrokenAlgorithmFailuresMatch) {
  const ProblemSpec spec{4, 4, 2};
  const auto constraints = cli_constraints(TimingModel::kSemiSynchronous, 4);
  const auto factory = conformance::make_mpm_factory("broken-halfslack");
  ASSERT_TRUE(factory);
  const WorstCase wc = mpm_worst_case(spec, constraints, *factory, 4, 3);
  EXPECT_EQ(wc, mpm_family_differential(spec, constraints, *factory, 3,
                                        RunLimits{}, "broken-halfslack"));
  EXPECT_FALSE(wc.all_solved);
  EXPECT_NE(wc.first_failure.find("solved=false"), std::string::npos)
      << wc.first_failure;
}

// Runs cut short by the step budget: partial traces, limit errors, and the
// step index the SimError names.
TEST(OnlineVerdict, PartialRunsMatchPostHocVerification) {
  for (const ModelCase& m : kModels) {
    const auto mpm_factory = conformance::make_mpm_factory(m.model);
    const auto smm_factory = conformance::make_smm_factory(
        m.timing == TimingModel::kSporadic ? "async" : m.model);
    const ProblemSpec spec{4, 4, 2};
    for (const std::int64_t budget : {1, 3, 9}) {
      const std::string where = m.model + " max_steps=" +
                                std::to_string(budget);
      RunLimits mpm_limits;
      mpm_limits.max_steps = budget;
      const auto mpm_c = cli_constraints(m.timing, spec.n);
      const WorstCase mpm_wc =
          mpm_worst_case(spec, mpm_c, *mpm_factory, 4, 7, mpm_limits);
      EXPECT_TRUE(mpm_wc.any_hit_limit) << where;
      EXPECT_EQ(mpm_wc, mpm_family_differential(spec, mpm_c, *mpm_factory, 7,
                                                mpm_limits, "mpm " + where));
      RunLimits smm_limits;
      smm_limits.max_steps = budget;
      const auto smm_c =
          cli_constraints(m.timing, smm_total_processes(spec.n, spec.b));
      const WorstCase smm_wc =
          smm_worst_case(spec, smm_c, *smm_factory, 4, 7, smm_limits);
      EXPECT_TRUE(smm_wc.any_hit_limit) << where;
      EXPECT_EQ(smm_wc, smm_family_differential(spec, smm_c, *smm_factory, 7,
                                                smm_limits, "smm " + where));
    }
  }
}

// Fault-injected runs leave the admissible space in every way the injector
// knows; the monitor must fail its proof exactly when check_admissible
// names a violation, and match verify() on everything else.
TEST(OnlineVerdict, FaultInjectedRunsNeverClaimAProofTheCheckerRefutes) {
  const ProblemSpec spec{3, 3, 2};
  const auto mpm_c = TimingConstraints::semi_synchronous(1, 2, 3);
  const auto smm_c = TimingConstraints::semi_synchronous(1, 2);
  const auto mpm_factory = conformance::make_mpm_factory("semisync");
  const auto smm_factory = conformance::make_smm_factory("semisync");
  ASSERT_TRUE(mpm_factory && smm_factory);
  std::vector<FaultPlan> plans;
  for (const char* text :
       {"timing:0@3*16", "timing:1@2*1/4", "delay:40%,extra:5", "drop:25%",
        "drop:#4", "dup:30%", "dup:#2,delay:50%,extra:2", "crash:1@2",
        "crash:0@1,drop:10%", "corrupt:25%", "corrupt:@3,crash:2@4",
        "seed:7,timing:2@1*3,dup:20%"}) {
    std::string error;
    const auto plan = FaultPlan::parse(text, &error);
    ASSERT_TRUE(plan) << text << ": " << error;
    plans.push_back(*plan);
  }
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    plans.push_back(FaultPlan::random(seed, spec.n));

  int refuted_mpm = 0, refuted_smm = 0;
  for (std::size_t k = 0; k < plans.size(); ++k) {
    const FaultPlan& plan = plans[k];
    const std::string where = "plan " + plan.to_string();
    RunLimits mpm_limits;
    mpm_limits.max_steps = 20'000;
    const auto mpm_run = [&](Recording recording) {
      UniformGapScheduler sched(Ratio(1), Ratio(2), 100 + k);
      UniformRandomDelay delay(Duration(0), Duration(3), 200 + k);
      FaultInjector faults(plan);
      return MpmSimulator(spec, mpm_c, *mpm_factory, sched, delay, &faults)
          .run(mpm_limits, recording);
    };
    const MpmRunResult mpm_online = mpm_run(Recording::kVerdictOnly);
    const MpmRunResult mpm_traced = mpm_run(Recording::kTrace);
    expect_same_run(mpm_online, mpm_traced, "mpm " + where);
    EXPECT_EQ(mpm_online.messages_sent, mpm_traced.messages_sent) << where;
    if (mpm_online.verdict &&
        !expect_online_matches(*mpm_online.verdict, mpm_traced.trace, spec,
                               mpm_c, "mpm " + where))
      ++refuted_mpm;

    RunLimits smm_limits;
    smm_limits.max_steps = 20'000;
    const auto smm_run = [&](Recording recording) {
      UniformGapScheduler sched(Ratio(1), Ratio(2), 300 + k);
      FaultInjector faults(plan);
      return SmmSimulator(spec, smm_c, *smm_factory, sched, &faults)
          .run(smm_limits, recording);
    };
    const SmmRunResult smm_online = smm_run(Recording::kVerdictOnly);
    const SmmRunResult smm_traced = smm_run(Recording::kTrace);
    expect_same_run(smm_online, smm_traced, "smm " + where);
    if (smm_online.verdict &&
        !expect_online_matches(*smm_online.verdict, smm_traced.trace, spec,
                               smm_c, "smm " + where))
      ++refuted_smm;
  }
  // The plans do reach the inadmissible space on both substrates.
  EXPECT_GT(refuted_mpm, 0);
  EXPECT_GT(refuted_smm, 0);
}

// Forced fallback: constraints validate() rejects (but the family's
// schedules run fine under) make every member's online verdict unsettled,
// so the drivers re-run recording and take verify()'s wording. The report,
// first_failure text included, equals full-trace verification.
TEST(OnlineVerdict, ForcedFallbackEqualsFullTraceVerification) {
  const ProblemSpec spec{3, 3, 2};
  {
    auto constraints = TimingConstraints::synchronous(2, 3);
    constraints.d1 = 5;  // d1 > d2: invalid, and ignored by the schedules
    const auto factory = conformance::make_mpm_factory("sync");
    const WorstCase wc = mpm_worst_case(spec, constraints, *factory, 4, 1);
    EXPECT_EQ(wc, mpm_family_differential(spec, constraints, *factory, 1,
                                          RunLimits{}, "mpm fallback"));
    EXPECT_EQ(wc.first_failure,
              "lockstep: inadmissible (invalid constraints: need 0 <= d1 <= "
              "d2)");
  }
  {
    // The asynchronous SMM ignores c2, but validate() demands c2 > 0.
    const auto constraints = TimingConstraints::asynchronous(0, 1);
    const auto factory = conformance::make_smm_factory("async");
    const WorstCase wc = smm_worst_case(spec, constraints, *factory, 4, 1);
    EXPECT_EQ(wc, smm_family_differential(spec, constraints, *factory, 1,
                                          RunLimits{}, "smm fallback"));
    EXPECT_EQ(wc.first_failure,
              "all-base: inadmissible (invalid constraints: asynchronous: "
              "need c2 > 0 (MPM form))");
    EXPECT_FALSE(wc.all_admissible);
  }
}

}  // namespace
}  // namespace sesp
