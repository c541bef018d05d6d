#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/broken_algs.hpp"
#include "algorithms/mpm/periodic_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/mpm/sync_alg.hpp"
#include "algorithms/smm/async_alg.hpp"
#include "algorithms/smm/periodic_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "algorithms/smm/sync_alg.hpp"
#include "analysis/report.hpp"
#include "recovery/journal.hpp"
#include "recovery/supervisor.hpp"
#include "util/digest.hpp"

namespace sesp {
namespace {

TEST(ExperimentTest, WorstCaseAggregatesSyncMpm) {
  const ProblemSpec spec{3, 3, 2};
  const auto constraints = TimingConstraints::synchronous(2, 4);
  SyncMpmFactory factory;
  const WorstCase wc = mpm_worst_case(spec, constraints, factory);
  EXPECT_EQ(wc.runs, 1);  // synchronous has a unique schedule
  EXPECT_TRUE(wc.all_admissible);
  EXPECT_TRUE(wc.all_solved);
  EXPECT_FALSE(wc.any_hit_limit);
  EXPECT_EQ(wc.min_sessions, 3);
  EXPECT_EQ(wc.max_termination, Time(6));
  EXPECT_TRUE(wc.first_failure.empty());
}

TEST(ExperimentTest, WorstCaseRecordsFailures) {
  const ProblemSpec spec{4, 3, 2};
  // Broken algorithm under the periodic model: one process slowed.
  std::vector<Duration> periods(3, Duration(1));
  periods[0] = Duration(50);
  const auto constraints = TimingConstraints::periodic(periods, Duration(1));
  NoWaitPeriodicMpmFactory broken;
  const WorstCase wc = mpm_worst_case(spec, constraints, broken);
  EXPECT_TRUE(wc.all_admissible);
  EXPECT_FALSE(wc.all_solved);
  EXPECT_LT(wc.min_sessions, 4);
  EXPECT_FALSE(wc.first_failure.empty());
}

TEST(ExperimentTest, SmmWorstCaseRuns) {
  const ProblemSpec spec{2, 4, 3};
  const auto constraints = TimingConstraints::synchronous(1);
  SyncSmmFactory factory;
  const WorstCase wc = smm_worst_case(spec, constraints, factory);
  EXPECT_TRUE(wc.all_solved);
  EXPECT_EQ(wc.max_termination, Time(2));
  EXPECT_GT(wc.max_gamma, Duration(0));
}

TEST(ExperimentTest, RunOnceReturnsTraceAndVerdict) {
  const ProblemSpec spec{2, 2, 2};
  const auto constraints = TimingConstraints::synchronous(1, 1);
  SyncMpmFactory factory;
  FixedPeriodScheduler sched(2, Duration(1));
  FixedDelay delay(Duration(1));
  const MpmOutcome out = run_mpm_once(spec, constraints, factory, sched, delay);
  EXPECT_TRUE(out.run.completed);
  EXPECT_TRUE(out.verdict.admissible);
  EXPECT_EQ(out.verdict.sessions, 2);
  EXPECT_TRUE(out.verdict.solves);
  EXPECT_EQ(out.verdict.rounds.rounds_ceiling(), 2);
}

TEST(BoundReportTest, RowsAndVerdict) {
  BoundReport report("test");
  WorstCase wc;
  wc.runs = 1;
  wc.all_admissible = true;
  wc.all_solved = true;
  wc.max_termination = Time(5);
  report.add_time_row("cell-a", Ratio(4), wc, Ratio(6));
  EXPECT_TRUE(report.all_ok());

  report.add_time_row("cell-b", Ratio(1), wc, Ratio(4));  // measured above U
  EXPECT_FALSE(report.all_ok());

  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("cell-a"), std::string::npos);
  EXPECT_NE(os.str().find("[FAIL]"), std::string::npos);
}

TEST(BoundReportTest, RoundsRow) {
  BoundReport report("rounds");
  WorstCase wc;
  wc.all_admissible = true;
  wc.all_solved = true;
  wc.max_rounds = 7;
  report.add_rounds_row("cell", 2, wc, 10);
  EXPECT_TRUE(report.all_ok());
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("rounds"), std::string::npos);
}

// --- Byte pins --------------------------------------------------------------
//
// The six sweep stages' report bytes and slot-0 journal payloads, recorded
// from the per-substrate drivers before they were folded into one generic
// sweep per kind. The jobs-count and kill/resume suites only compare a run
// with another run of the same code; these pin the bytes themselves.

const char* const kModels[] = {"sync", "periodic", "semisync", "sporadic",
                               "async"};

// The sesp_cli constants (--c1=1 --c2=2 --d1=0 --d2=4), with the periodic
// model's spread of periods over `total` processes.
TimingConstraints pin_constraints(const std::string& model,
                                  std::int32_t total) {
  if (model == "sync") return TimingConstraints::synchronous(2, 4);
  if (model == "periodic") {
    std::vector<Duration> periods;
    for (std::int32_t i = 0; i < total; ++i)
      periods.push_back(Ratio(1) + Ratio(i, std::max(total - 1, 1)));
    return TimingConstraints::periodic(periods, 4);
  }
  if (model == "semisync") return TimingConstraints::semi_synchronous(1, 2, 4);
  if (model == "sporadic") return TimingConstraints::sporadic(1, 0, 4);
  return TimingConstraints::asynchronous(2, 4);
}

std::unique_ptr<MpmAlgorithmFactory> pin_mpm_factory(const std::string& m) {
  if (m == "sync") return std::make_unique<SyncMpmFactory>();
  if (m == "periodic") return std::make_unique<PeriodicMpmFactory>();
  if (m == "semisync") return std::make_unique<SemiSyncMpmFactory>();
  if (m == "sporadic") return std::make_unique<SporadicMpmFactory>();
  return std::make_unique<AsyncMpmFactory>();
}

std::unique_ptr<SmmAlgorithmFactory> pin_smm_factory(const std::string& m) {
  if (m == "sync") return std::make_unique<SyncSmmFactory>();
  if (m == "periodic") return std::make_unique<PeriodicSmmFactory>();
  if (m == "semisync") return std::make_unique<SemiSyncSmmFactory>();
  return std::make_unique<AsyncSmmFactory>();
}

std::string hex(const std::string& text) {
  return util::fnv1a_hex(util::fnv1a(text));
}

// Degradation grids run the sesp_cli grid, {0, 1, 2} crashes x {0, 5, 20}%.
struct SweepPin {
  const char* degradation;  // fnv1a of DegradationReport::to_string()
  const char* chaos;        // fnv1a of ChaosReport::digest
};

TEST(SweepPins, MpmReportsMatchRecordedBytes) {
  const ProblemSpec spec{3, 3, 2};
  const SweepPin pins[] = {
      {"0c435f2c74da1072", "289d75569f750d6f"},  // sync
      {"bdf57b8ae7133bb0", "8a507f75d807c204"},  // periodic
      {"e4baca95952499ee", "9b3a61b77438a368"},  // semisync
      {"8560664087b35523", "fa7204f0ce5f5da3"},  // sporadic
      {"176651fa09123198", "69da86c63b8e1a82"},  // async
  };
  for (std::size_t i = 0; i < 5; ++i) {
    const std::string model = kModels[i];
    const auto constraints = pin_constraints(model, spec.n);
    const auto factory = pin_mpm_factory(model);
    RunLimits limits;
    limits.max_steps = 150'000;
    const DegradationReport degradation = mpm_degradation(
        spec, constraints, *factory, {0, 1, 2}, {0, 5, 20}, 7, limits);
    limits.max_steps = 20'000;
    const ChaosReport chaos =
        mpm_chaos_sweep(spec, constraints, *factory, 8, 11, limits);
    EXPECT_EQ(hex(degradation.to_string()), pins[i].degradation)
        << model << "\n" << degradation.to_string();
    EXPECT_EQ(hex(chaos.digest), pins[i].chaos)
        << model << "\n" << chaos.digest;
  }
}

TEST(SweepPins, SmmReportsMatchRecordedBytes) {
  const ProblemSpec spec{3, 3, 2};
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const SweepPin pins[] = {
      {"70734b40d1e51e2c", "fea8bdade3ec0145"},  // sync
      {"56785f11aa10f4a9", "9b07d89bbcd65db6"},  // periodic
      {"42efc86387538733", "9de434cab2fb9ca0"},  // semisync
      {"d3ac114748b7731f", "37c80bcd46b5ec94"},  // sporadic
      {"b71886ea97e025c4", "4cba5b890440c50c"},  // async
  };
  for (std::size_t i = 0; i < 5; ++i) {
    const std::string model = kModels[i];
    const auto constraints = pin_constraints(model, total);
    const auto factory = pin_smm_factory(model);
    RunLimits limits;
    limits.max_steps = 150'000;
    const DegradationReport degradation = smm_degradation(
        spec, constraints, *factory, {0, 1, 2}, {0, 5, 20}, 7, limits);
    limits.max_steps = 20'000;
    const ChaosReport chaos =
        smm_chaos_sweep(spec, constraints, *factory, 8, 11, limits);
    EXPECT_EQ(hex(degradation.to_string()), pins[i].degradation)
        << model << "\n" << degradation.to_string();
    EXPECT_EQ(hex(chaos.digest), pins[i].chaos)
        << model << "\n" << chaos.digest;
  }
}

// One small run of each of the six sweep stages, semi-synchronous at the
// CLI constants.
void run_pinned_sweeps() {
  const ProblemSpec spec{3, 3, 2};
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const auto mpm_c = pin_constraints("semisync", spec.n);
  const auto smm_c = pin_constraints("semisync", total);
  SemiSyncMpmFactory mpm_factory;
  SemiSyncSmmFactory smm_factory;
  RunLimits limits;
  limits.max_steps = 20'000;
  // Seed of run 4 of the chaos pins above: its MPM and SMM payloads differ.
  const std::uint64_t chaos_seed = 11 + 4 * 2654435761ULL;
  mpm_worst_case(spec, mpm_c, mpm_factory, 2, 5);
  smm_worst_case(spec, smm_c, smm_factory, 2, 5);
  mpm_degradation(spec, mpm_c, mpm_factory, {0}, {20}, 7, limits);
  smm_degradation(spec, smm_c, smm_factory, {0}, {20}, 7, limits);
  mpm_chaos_sweep(spec, mpm_c, mpm_factory, 2, chaos_seed, limits);
  smm_chaos_sweep(spec, smm_c, smm_factory, 2, chaos_seed, limits);
}

// Runs every sweep stage twice under one journaled supervisor: the second
// run of a stage journals under the deduplicated name "<stage>#2".
TEST(SweepPins, JournalStagesAndSlotZeroPayloads) {
  const std::string path = ::testing::TempDir() + "/sweep_pins.journal";
  std::remove(path.c_str());
  std::string error;
  auto journal =
      recovery::RunJournal::create(path, "experiment_test", 1, &error);
  ASSERT_NE(journal, nullptr) << error;
  journal->set_fsync(false);
  recovery::Supervisor sup(std::move(journal), {});
  recovery::Supervisor* prev = recovery::Supervisor::install(&sup);
  run_pinned_sweeps();
  run_pinned_sweeps();
  recovery::Supervisor::install(prev);

  const std::pair<const char*, const char*> pins[] = {
      {"mpm_worst_case",
       "label=all-slow/max-delay\ncompleted=1\nhit_limit=0\nadmissible=1\n"
       "violation=\nsolves=1\nsessions=7\ntermination=14\nrounds=7\ngamma=2\n"},
      {"smm_worst_case",
       "label=all-slow\ncompleted=1\nhit_limit=0\nadmissible=1\nviolation=\n"
       "solves=1\nsessions=7\ntermination=14\nrounds=7\ngamma=2\n"},
      {"mpm_degradation",
       "crashes=0\nfault_percent=20\noutcome=0\nsessions=7\ncompleted=1\n"
       "admissible=1\ninjected=0\ndiagnostic=solved: sessions=7\n"},
      {"smm_degradation",
       "crashes=0\nfault_percent=20\noutcome=0\nsessions=7\ncompleted=1\n"
       "admissible=1\ninjected=3\ndiagnostic=solved: sessions=7\n"},
      {"mpm_chaos",
       "outcome=2\nok=1\nviolation=\ndigest=10617743055:diagnosed:1:c;\n"},
      {"smm_chaos",
       "outcome=2\nok=1\nviolation=\ndigest=10617743055:diagnosed:5:c;\n"},
  };
  // Two rounds of 5 + 5 worst-case members, 1 + 1 cells, 2 + 2 chaos runs.
  EXPECT_EQ(sup.journal()->records(), 32);
  for (const auto& [stage, payload] : pins) {
    for (const std::string& name :
         {std::string(stage), std::string(stage) + "#2"}) {
      const std::string* got = sup.journal()->lookup(name, 0);
      ASSERT_NE(got, nullptr) << name;
      EXPECT_EQ(*got, payload) << name;
    }
  }
  std::remove(path.c_str());
}

// Every sweep task's span, in task order: name, category and args.
TEST(SweepPins, TaskSpans) {
  obs::TraceSink sink;
  obs::Observer observer(nullptr, &sink);
  obs::Observer* prev = obs::set_default_observer(&observer);
  run_pinned_sweeps();
  obs::set_default_observer(prev);

  std::vector<std::string> spans;
  for (const obs::TraceEvent& e : sink.events())
    if (e.depth == 0) spans.push_back(e.name + " " + e.category + " " +
                                      e.args_json);
  const std::vector<std::string> pins = {
      R"(adversary.mpm_worst_case adversary {"label":"all-slow/max-delay"})",
      R"(adversary.mpm_worst_case adversary {"label":"all-fast/max-delay"})",
      R"(adversary.mpm_worst_case adversary {"label":"slow-one/max-delay"})",
      R"(adversary.mpm_worst_case adversary {"label":"random#0"})",
      R"(adversary.mpm_worst_case adversary {"label":"random#1"})",
      R"(adversary.smm_worst_case adversary {"label":"all-slow"})",
      R"(adversary.smm_worst_case adversary {"label":"all-fast"})",
      R"(adversary.smm_worst_case adversary {"label":"slow-one"})",
      R"(adversary.smm_worst_case adversary {"label":"random#0"})",
      R"(adversary.smm_worst_case adversary {"label":"random#1"})",
      R"(degradation.mpm_cell sim {"crashes":0,"percent":20})",
      R"(degradation.smm_cell sim {"crashes":0,"percent":20})",
      R"(chaos.mpm_run sim {"seed":10617743055})",
      R"(chaos.mpm_run sim {"seed":13272178816})",
      R"(chaos.smm_run sim {"seed":10617743055})",
      R"(chaos.smm_run sim {"seed":13272178816})",
  };
  EXPECT_EQ(spans, pins);
}

}  // namespace
}  // namespace sesp
