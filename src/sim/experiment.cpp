#include "sim/experiment.hpp"

#include <deque>
#include <memory>
#include <sstream>
#include <vector>

#include "adversary/delay_strategies.hpp"
#include "adversary/step_schedulers.hpp"
#include "exec/thread_pool.hpp"
#include "model/trace_io.hpp"
#include "recovery/payload.hpp"
#include "recovery/supervisor.hpp"

namespace sesp {

namespace {

// The one per-task frame of every sweep. Each task gets its own observation
// shard (the deque pins them: Observer points into them), an exec.task
// profile scope and a span named `span` in `category` with args(i) — built
// only when a trace sink listens. compute(i, observer) returns the task's
// payload, which runs through recovery::supervised_sweep (journal replay,
// task policy, sharding); apply(i, payload) folds the decoded payload in
// task order after the task's shard is merged into its parent.
template <typename Args, typename Compute, typename Apply>
void sweep(const std::string& stage, const std::string& span,
           const char* category, std::size_t count, const Args& args,
           const Compute& compute, const Apply& apply) {
  obs::Observer* const parent = obs::default_observer();
  std::deque<obs::ObservationShard> shards;
  for (std::size_t i = 0; i < count; ++i) shards.emplace_back(parent);
  recovery::supervised_sweep(
      stage, count,
      [&](std::size_t i) {
        obs::Observer* const o = shards[i].observer();
        obs::ProfileScope exec_scope(o ? o->profiler : nullptr,
                                     obs::ProfilePhase::kExecTask);
        obs::Span task_span(o ? o->trace : nullptr, span, category,
                            o && o->trace ? args(i) : std::string());
        return compute(i, o);
      },
      [&](std::size_t i, const std::string& payload) {
        shards[i].merge_into_parent();
        apply(i, payload);
      },
      parent);
}

// The per-substrate half of every sweep: the simulator call, the process
// count a schedule or fault plan spans, and whether the substrate carries
// messages — MPM draws a delay strategy for each run and injects message
// loss; shared memory has neither and injects write corruption instead.
// The sweeps below are written once over this trait.
struct MpmSubstrate {
  using Factory = MpmAlgorithmFactory;
  static constexpr const char* kName = "mpm";
  static constexpr bool kMessages = true;
  static std::int32_t processes(const ProblemSpec& spec) { return spec.n; }
  static constexpr auto family = &mpm_worst_case_family;
  static MpmRunResult run(const ProblemSpec& spec, const TimingConstraints& c,
                          const Factory& factory, const Adversary& adv,
                          const RunLimits& limits, Recording recording,
                          FaultInjector* faults, obs::Observer* o) {
    return MpmSimulator(spec, c, factory, *adv.sched, *adv.delay, faults, o)
        .run(limits, recording);
  }
};

struct SmmSubstrate {
  using Factory = SmmAlgorithmFactory;
  static constexpr const char* kName = "smm";
  static constexpr bool kMessages = false;
  static std::int32_t processes(const ProblemSpec& spec) {
    return smm_total_processes(spec.n, spec.b);
  }
  static constexpr auto family = &smm_worst_case_family;
  static SmmRunResult run(const ProblemSpec& spec, const TimingConstraints& c,
                          const Factory& factory, const Adversary& adv,
                          const RunLimits& limits, Recording recording,
                          FaultInjector* faults, obs::Observer* o) {
    return SmmSimulator(spec, c, factory, *adv.sched, faults, o)
        .run(limits, recording);
  }
};

// Everything the worst-case aggregate consumes from one run, flattened to
// journal-codable fields: the sweeps fold *decoded* WorstSlots (fresh or
// replayed from a checkpoint journal) so the report is a pure function of
// the payload bytes (docs/robustness.md).
struct WorstSlot {
  std::string label;
  bool completed = false;
  bool hit_limit = false;
  bool admissible = false;
  std::string violation;
  bool solves = false;
  std::int64_t sessions = 0;
  std::optional<Time> termination;
  std::int64_t rounds = 0;
  std::optional<Duration> gamma;
  std::optional<std::string> error;
};

template <typename RunResult>
WorstSlot make_worst_slot(const std::string& label, const RunResult& run,
                          const Verdict& v) {
  WorstSlot s;
  s.label = label;
  s.completed = run.completed;
  s.hit_limit = run.hit_limit;
  s.admissible = v.admissible;
  s.violation = v.admissibility_violation;
  s.solves = v.solves;
  s.sessions = v.sessions;
  s.termination = v.termination_time;
  s.rounds = v.rounds.rounds_ceiling();
  if (v.gamma) s.gamma = *v.gamma;
  if (run.error) s.error = run.error->to_string();
  return s;
}

// One worst-case family member's slot, verdict-only (docs/performance.md
// "Verdict-only runs"): the simulator feeds the online monitor and builds
// no trace. When the monitor cannot settle the verdict — a check it could
// not prove, or invalid constraints — the member is re-run from a freshly
// built adversary with the trace on and verified post hoc, so the
// violation wording stays check_admissible's. Both runs are deterministic
// and identical up to recording, so the retry is observed only through its
// verdict: its simulator instruments go to an inert observer, and the
// verdict counters are recorded once either way.
template <typename Simulate>
WorstSlot worst_slot(const FamilyMember& member, const ProblemSpec& spec,
                     const TimingConstraints& constraints, obs::Observer* o,
                     const Simulate& simulate) {
  auto adversary = member.make();
  const auto online = simulate(adversary, Recording::kVerdictOnly, o);
  if (online.verdict->admissible) {
    observe_verdict(o, *online.verdict);
    return make_worst_slot(member.label, online, *online.verdict);
  }
  obs::Observer inert;
  auto fresh = member.make();
  const auto traced = simulate(fresh, Recording::kTrace, &inert);
  const Verdict v = verify(traced.trace, spec, constraints, &inert);
  observe_verdict(o, v);
  return make_worst_slot(member.label, traced, v);
}

std::string encode_worst_slot(const WorstSlot& s) {
  recovery::PayloadWriter w;
  w.put("label", s.label);
  w.put_bool("completed", s.completed);
  w.put_bool("hit_limit", s.hit_limit);
  w.put_bool("admissible", s.admissible);
  w.put("violation", s.violation);
  w.put_bool("solves", s.solves);
  w.put_int("sessions", s.sessions);
  if (s.termination) w.put("termination", ratio_to_text(*s.termination));
  w.put_int("rounds", s.rounds);
  if (s.gamma) w.put("gamma", ratio_to_text(*s.gamma));
  if (s.error) w.put("error", *s.error);
  return w.str();
}

WorstSlot decode_worst_slot(const std::string& payload,
                            const std::string& fallback_label) {
  WorstSlot s;
  s.label = fallback_label;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    // Supervisor-level failure: the schedule itself was fine (admissible),
    // the run just never produced a verdict.
    s.admissible = true;
    s.error = failure->to_string();
    return s;
  }
  const recovery::PayloadReader r(payload);
  s.label = r.get("label", fallback_label);
  s.completed = r.get_bool("completed", false);
  s.hit_limit = r.get_bool("hit_limit", false);
  s.admissible = r.get_bool("admissible", false);
  s.violation = r.get("violation");
  s.solves = r.get_bool("solves", false);
  s.sessions = r.get_int("sessions", 0);
  if (r.has("termination"))
    if (const auto t = ratio_from_text(r.get("termination"))) s.termination = *t;
  s.rounds = r.get_int("rounds", 0);
  if (r.has("gamma"))
    if (const auto g = ratio_from_text(r.get("gamma"))) s.gamma = *g;
  if (r.has("error")) s.error = r.get("error");
  return s;
}

void fold(WorstCase& wc, const WorstSlot& s) {
  ++wc.runs;
  wc.any_hit_limit = wc.any_hit_limit || s.hit_limit;
  if (!s.admissible || !s.solves || s.hit_limit || s.error) {
    wc.all_solved = wc.all_solved && s.solves && !s.hit_limit && !s.error;
    wc.all_admissible = wc.all_admissible && s.admissible;
    if (wc.first_failure.empty()) {
      wc.first_failure = s.label + ": ";
      if (!s.admissible)
        wc.first_failure += "inadmissible (" + s.violation + ")";
      else if (s.error)
        wc.first_failure += *s.error;
      else if (s.hit_limit)
        wc.first_failure += "hit run limit";
      else
        wc.first_failure +=
            "solved=false (sessions=" + std::to_string(s.sessions) + ")";
    }
  }
  // Limit hits are recorded on their own channel: a run that trips a limit
  // must name the adversary and the limit even when another run already
  // claimed first_failure (or succeeds later).
  if (s.hit_limit && wc.first_limit_hit.empty())
    wc.first_limit_hit = s.label + ": " + (s.error ? *s.error : "hit run limit");
  if (wc.runs == 1 || s.sessions < wc.min_sessions)
    wc.min_sessions = s.sessions;
  if (s.completed && s.termination && wc.max_termination < *s.termination)
    wc.max_termination = *s.termination;
  if (wc.max_rounds < s.rounds) wc.max_rounds = s.rounds;
  if (s.gamma && wc.max_gamma < *s.gamma) wc.max_gamma = *s.gamma;
}

// Each member builds its own schedulers (and their RNG streams), so runs
// are independent; results land in per-member slots and are folded in
// family order, making the aggregate identical for every job count and —
// via the WorstSlot payload round trip — for every interrupt/resume history
// when a recovery::Supervisor is installed.
template <typename S>
WorstCase worst_case(const ProblemSpec& spec,
                     const TimingConstraints& constraints,
                     const typename S::Factory& factory,
                     std::int32_t random_runs, std::uint64_t seed,
                     const RunLimits& limits) {
  WorstCase wc;
  const std::vector<FamilyMember> family =
      S::family(spec, constraints, random_runs, seed);
  const auto simulate = [&](const Adversary& adv, Recording recording,
                            obs::Observer* o) {
    return S::run(spec, constraints, factory, adv, limits, recording, nullptr,
                  o);
  };
  const std::string stage = std::string(S::kName) + "_worst_case";
  sweep(
      stage, "adversary." + stage, "adversary", family.size(),
      [&](std::size_t i) {
        return obs::args_object({obs::arg_str("label", family[i].label)});
      },
      [&](std::size_t i, obs::Observer* o) {
        return encode_worst_slot(
            worst_slot(family[i], spec, constraints, o, simulate));
      },
      [&](std::size_t i, const std::string& payload) {
        fold(wc, decode_worst_slot(payload, family[i].label));
      });
  return wc;
}

// --- Degradation sweeps -----------------------------------------------------

// The canonical deterministic adversary of each model (its first worst-case
// family member): degradation cells isolate the injected faults, so the
// schedule itself stays fixed and admissible.
std::unique_ptr<StepScheduler> canonical_scheduler(
    const TimingConstraints& constraints, std::int32_t num_processes) {
  switch (constraints.model) {
    case TimingModel::kPeriodic:
      return std::make_unique<FixedPeriodScheduler>(constraints.periods);
    case TimingModel::kSporadic:
      return std::make_unique<FixedPeriodScheduler>(num_processes,
                                                    constraints.c1);
    case TimingModel::kSynchronous:
    case TimingModel::kSemiSynchronous:
      return std::make_unique<FixedPeriodScheduler>(num_processes,
                                                    constraints.c2);
    case TimingModel::kAsynchronous:
      return std::make_unique<FixedPeriodScheduler>(
          num_processes, constraints.c2.is_positive() ? constraints.c2
                                                      : Duration(1));
  }
  return std::make_unique<FixedPeriodScheduler>(num_processes, Duration(1));
}

// k crash-stops spread over the first k of spec.n processes (on shared
// memory too, whose total process count is larger) plus p% message loss or
// write corruption.
template <typename S>
FaultPlan grid_plan(std::int32_t crashes, std::int32_t percent,
                    std::int32_t n, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  for (std::int32_t i = 0; i < crashes && i < n; ++i)
    plan.crashes.push_back(CrashFault{i, 1 + i});
  if (S::kMessages)
    plan.messages.drop_percent = static_cast<std::uint32_t>(percent);
  else
    plan.writes.corrupt_percent = static_cast<std::uint32_t>(percent);
  return plan;
}

std::string encode_degradation_cell(const DegradationCell& cell) {
  recovery::PayloadWriter w;
  w.put_int("crashes", cell.crashes);
  w.put_int("fault_percent", cell.fault_percent);
  w.put_int("outcome", static_cast<std::int64_t>(cell.outcome));
  w.put_int("sessions", cell.sessions);
  w.put_bool("completed", cell.completed);
  w.put_bool("admissible", cell.admissible);
  w.put_int("injected", cell.injected);
  w.put("diagnostic", cell.diagnostic);
  return w.str();
}

DegradationCell decode_degradation_cell(const std::string& payload,
                                        std::int32_t crashes,
                                        std::int32_t percent) {
  DegradationCell cell;
  cell.crashes = crashes;
  cell.fault_percent = percent;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    // A cell whose every attempt failed is a diagnosed outcome: structured,
    // named, never silently dropped from the grid.
    cell.outcome = RunOutcome::kDiagnosed;
    cell.diagnostic = failure->to_string();
    return cell;
  }
  const recovery::PayloadReader r(payload);
  cell.crashes = static_cast<std::int32_t>(r.get_int("crashes", crashes));
  cell.fault_percent =
      static_cast<std::int32_t>(r.get_int("fault_percent", percent));
  const std::int64_t outcome = r.get_int("outcome", 0);
  cell.outcome = outcome == 1   ? RunOutcome::kDegraded
                 : outcome == 2 ? RunOutcome::kDiagnosed
                                : RunOutcome::kSolved;
  cell.sessions = r.get_int("sessions", 0);
  cell.completed = r.get_bool("completed", false);
  cell.admissible = r.get_bool("admissible", false);
  cell.injected = r.get_int("injected", 0);
  cell.diagnostic = r.get("diagnostic");
  return cell;
}

// Grid cells are fully independent (per-cell injector and scheduler, both
// seeded by the cell's own (k, p)); the cell list fixes the order.
template <typename S>
DegradationReport degradation(const ProblemSpec& spec,
                              const TimingConstraints& constraints,
                              const typename S::Factory& factory,
                              const std::vector<std::int32_t>& crash_counts,
                              const std::vector<std::int32_t>& percents,
                              std::uint64_t seed, const RunLimits& limits) {
  DegradationReport report;
  report.algorithm = factory.name();
  report.substrate = S::kName;
  struct Cell {
    std::int32_t k;
    std::int32_t p;
  };
  std::vector<Cell> grid;
  for (const std::int32_t k : crash_counts)
    for (const std::int32_t p : percents) grid.push_back(Cell{k, p});
  report.cells.resize(grid.size());
  sweep(
      std::string(S::kName) + "_degradation",
      "degradation." + std::string(S::kName) + "_cell", "sim", grid.size(),
      [&](std::size_t i) {
        return obs::args_object({obs::arg_int("crashes", grid[i].k),
                                 obs::arg_int("percent", grid[i].p)});
      },
      [&](std::size_t i, obs::Observer* o) {
        const auto [k, p] = grid[i];
        FaultInjector injector(grid_plan<S>(
            k, p, spec.n, seed + 131 * static_cast<std::uint64_t>(k) +
                              static_cast<std::uint64_t>(p)));
        Adversary adv{canonical_scheduler(constraints, S::processes(spec)),
                      nullptr};
        if (S::kMessages)
          adv.delay = std::make_unique<FixedDelay>(constraints.d2);
        const auto run = S::run(spec, constraints, factory, adv, limits,
                                Recording::kTrace, &injector, o);
        const Verdict verdict = verify(run.trace, spec, constraints, o);
        DegradationCell cell;
        cell.crashes = k;
        cell.fault_percent = p;
        cell.outcome = classify_outcome(run.error, verdict);
        cell.sessions = verdict.sessions;
        cell.completed = run.completed;
        cell.admissible = verdict.admissible;
        cell.injected = static_cast<std::int64_t>(injector.log().size());
        cell.diagnostic = outcome_diagnostic(run.error, verdict, spec);
        return encode_degradation_cell(cell);
      },
      [&](std::size_t i, const std::string& payload) {
        report.cells[i] =
            decode_degradation_cell(payload, grid[i].k, grid[i].p);
      });
  return report;
}

// --- Chaos sweeps -----------------------------------------------------------

// Per-run classification produced inside the sweep tasks and folded in run
// order afterwards.
struct ChaosRun {
  RunOutcome outcome = RunOutcome::kSolved;
  bool ok = true;
  std::string violation;
  std::string digest;
};

// The bucket invariants of the robustness contract (the sweep form of the
// FaultFuzz expect_contract checks): solved runs are admissible, solve and
// carry no error; degraded runs keep an admissible partial trace; diagnosed
// runs name their inadmissibility or carry a structured error; and an error
// always means the run did not complete.
template <typename RunResult>
ChaosRun classify_chaos(const RunResult& run, const Verdict& v,
                        std::uint64_t seed) {
  ChaosRun r;
  r.outcome = classify_outcome(run.error, v);
  switch (r.outcome) {
    case RunOutcome::kSolved:
      if (!v.admissible || !v.solves || run.error) {
        r.ok = false;
        r.violation = "solved bucket violated";
      }
      break;
    case RunOutcome::kDegraded:
      if (!v.admissible) {
        r.ok = false;
        r.violation = "degraded but inadmissible: " +
                      v.admissibility_violation;
      }
      break;
    case RunOutcome::kDiagnosed:
      if (v.admissible && !run.error) {
        r.ok = false;
        r.violation = "diagnosed without violation or error";
      } else if (!v.admissible && v.admissibility_violation.empty()) {
        r.ok = false;
        r.violation = "inadmissible without a named violation";
      }
      break;
  }
  if (run.error && run.completed) {
    r.ok = false;
    r.violation = "completed run carries an error";
  }
  if (!r.ok) r.violation = "seed " + std::to_string(seed) + ": " + r.violation;
  r.digest = std::to_string(seed) + ":" + sesp::to_string(r.outcome) + ":" +
             std::to_string(v.sessions) + (run.completed ? ":c;" : ":x;");
  return r;
}

void fold_chaos(ChaosReport& report, const ChaosRun& r) {
  ++report.runs;
  switch (r.outcome) {
    case RunOutcome::kSolved: ++report.solved; break;
    case RunOutcome::kDegraded: ++report.degraded; break;
    case RunOutcome::kDiagnosed: ++report.diagnosed; break;
  }
  if (!r.ok && report.contract_ok) {
    report.contract_ok = false;
    report.first_violation = r.violation;
  }
  report.digest += r.digest;
}

std::string encode_chaos_run(const ChaosRun& r) {
  recovery::PayloadWriter w;
  w.put_int("outcome", static_cast<std::int64_t>(r.outcome));
  w.put_bool("ok", r.ok);
  w.put("violation", r.violation);
  w.put("digest", r.digest);
  return w.str();
}

ChaosRun decode_chaos_run(const std::string& payload, std::uint64_t seed) {
  ChaosRun r;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    r.outcome = RunOutcome::kDiagnosed;
    r.ok = false;
    r.violation = "seed " + std::to_string(seed) + ": " + failure->to_string();
    r.digest = std::to_string(seed) + ":failed;";
    return r;
  }
  const recovery::PayloadReader reader(payload);
  const std::int64_t outcome = reader.get_int("outcome", 0);
  r.outcome = outcome == 1   ? RunOutcome::kDegraded
              : outcome == 2 ? RunOutcome::kDiagnosed
                             : RunOutcome::kSolved;
  r.ok = reader.get_bool("ok", false);
  r.violation = reader.get("violation");
  r.digest = reader.get("digest");
  return r;
}

// Schedule bounds for the chaos schedules, robust across timing models
// whose c1/c2 may be unset (zero).
Duration chaos_gap_lo(const TimingConstraints& c) {
  return c.c1.is_positive() ? c.c1 : Duration(1, 2);
}
Duration chaos_gap_hi(const TimingConstraints& c) {
  const Duration lo = chaos_gap_lo(c);
  return lo < c.c2 ? c.c2 : lo * 4;
}

// Run r draws its schedule, its MPM delays and its fault plan (over the
// substrate's whole process count) from seed + r's own stream.
template <typename S>
ChaosReport chaos(const ProblemSpec& spec, const TimingConstraints& constraints,
                  const typename S::Factory& factory, std::int32_t runs,
                  std::uint64_t seed, const RunLimits& limits) {
  const std::size_t count = runs > 0 ? static_cast<std::size_t>(runs) : 0;
  const Duration lo = chaos_gap_lo(constraints);
  const Duration hi = chaos_gap_hi(constraints);
  const Duration dmax =
      constraints.d2.is_positive() ? constraints.d2 : Duration(4);
  const auto run_seed = [seed](std::size_t i) {
    return seed + 2654435761ULL * i;
  };
  ChaosReport report;
  sweep(
      std::string(S::kName) + "_chaos",
      "chaos." + std::string(S::kName) + "_run", "sim", count,
      [&](std::size_t i) {
        return obs::args_object(
            {obs::arg_int("seed", static_cast<std::int64_t>(run_seed(i)))});
      },
      [&](std::size_t i, obs::Observer* o) {
        const std::uint64_t rs = run_seed(i);
        FaultInjector injector(FaultPlan::random(rs, S::processes(spec)));
        Adversary adv{std::make_unique<UniformGapScheduler>(lo, hi, rs + 1),
                      nullptr};
        if (S::kMessages)
          adv.delay =
              std::make_unique<UniformRandomDelay>(Duration(0), dmax, rs + 2);
        const auto run = S::run(spec, constraints, factory, adv, limits,
                                Recording::kTrace, &injector, o);
        return encode_chaos_run(
            classify_chaos(run, verify(run.trace, spec, constraints, o), rs));
      },
      [&](std::size_t i, const std::string& payload) {
        fold_chaos(report, decode_chaos_run(payload, run_seed(i)));
      });
  return report;
}

}  // namespace

MpmOutcome run_mpm_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const MpmAlgorithmFactory& factory,
                        StepScheduler& scheduler, DelayStrategy& delays,
                        const RunLimits& limits, FaultInjector* faults,
                        obs::Observer* observer) {
  MpmSimulator sim(spec, constraints, factory, scheduler, delays, faults,
                   observer);
  MpmOutcome out{sim.run(limits), Verdict{}};
  out.verdict = verify(out.run.trace, spec, constraints, observer);
  return out;
}

SmmOutcome run_smm_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const SmmAlgorithmFactory& factory,
                        StepScheduler& scheduler, const RunLimits& limits,
                        FaultInjector* faults, obs::Observer* observer) {
  SmmSimulator sim(spec, constraints, factory, scheduler, faults, observer);
  SmmOutcome out{sim.run(limits), Verdict{}};
  out.verdict = verify(out.run.trace, spec, constraints, observer);
  return out;
}

P2pOutcome run_p2p_once(const ProblemSpec& spec,
                        const TimingConstraints& constraints,
                        const Topology& topology,
                        const P2pAlgorithmFactory& factory,
                        StepScheduler& scheduler, DelayStrategy& delays,
                        const RunLimits& limits, FaultInjector* faults,
                        obs::Observer* observer) {
  P2pSimulator sim(spec, constraints, topology, factory, scheduler, delays,
                   faults, observer);
  P2pOutcome out{sim.run(limits), Verdict{}};
  out.verdict = verify(out.run.trace, spec, constraints, observer);
  return out;
}

std::vector<FamilyMember> mpm_worst_case_family(
    const ProblemSpec& spec, const TimingConstraints& constraints,
    std::int32_t random_runs, std::uint64_t seed) {
  const std::int32_t n = spec.n;
  const TimingConstraints& c = constraints;
  std::vector<FamilyMember> family;
  // Each builder captures its parameters by value, so a member can be
  // rebuilt fresh — RNG streams at their start — at any time.
  auto add = [&family](std::string label, auto make_sched, auto make_delay) {
    family.push_back(FamilyMember{
        std::move(label), [make_sched, make_delay] {
          return Adversary{make_sched(), make_delay()};
        }});
  };
  const auto fixed = [](auto... args) {
    return [=] { return std::make_unique<FixedPeriodScheduler>(args...); };
  };
  const auto fixed_delay = [](Duration d) {
    return [=] { return std::make_unique<FixedDelay>(d); };
  };
  const auto uniform_delay = [](Duration lo, Duration hi, std::uint64_t s) {
    return [=] { return std::make_unique<UniformRandomDelay>(lo, hi, s); };
  };

  switch (c.model) {
    case TimingModel::kSynchronous:
      add("lockstep", fixed(n, c.c2), fixed_delay(c.d2));
      break;
    case TimingModel::kPeriodic: {
      add("periods/max-delay", fixed(c.periods), fixed_delay(c.d2));
      add("periods/zero-delay", fixed(c.periods), fixed_delay(Duration(0)));
      const Duration d2 = c.d2;
      add("periods/straggler", fixed(c.periods), [d2] {
        return std::make_unique<StragglerDelay>(0, Duration(0), d2);
      });
      for (std::int32_t r = 0; r < random_runs; ++r)
        add("periods/random-delay#" + std::to_string(r), fixed(c.periods),
            uniform_delay(Duration(0), c.d2, seed + 31 * r + 1));
      break;
    }
    case TimingModel::kSemiSynchronous: {
      add("all-slow/max-delay", fixed(n, c.c2), fixed_delay(c.d2));
      add("all-fast/max-delay", fixed(n, c.c1), fixed_delay(c.d2));
      const Duration c1 = c.c1, c2 = c.c2;
      add("slow-one/max-delay",
          [=] { return std::make_unique<SlowOneScheduler>(n, c1, 0, c2); },
          fixed_delay(c.d2));
      for (std::int32_t r = 0; r < random_runs; ++r) {
        const std::uint64_t s = seed + 77 * r + 3;
        add("random#" + std::to_string(r),
            [=] { return std::make_unique<UniformGapScheduler>(c1, c2, s); },
            uniform_delay(Duration(0), c.d2, seed + 77 * r + 4));
      }
      break;
    }
    case TimingModel::kSporadic: {
      add("all-c1/max-delay", fixed(n, c.c1), fixed_delay(c.d2));
      add("all-c1/min-delay", fixed(n, c.c1), fixed_delay(c.d1));
      const Duration c1 = c.c1;
      add("slow-one/max-delay",
          [=] {
            return std::make_unique<SlowOneScheduler>(n, c1, 0, c1 * 16);
          },
          fixed_delay(c.d2));
      for (std::int32_t r = 0; r < random_runs; ++r) {
        const std::uint64_t s = seed + 13 * r + 5;
        add("bursty#" + std::to_string(r),
            [=] { return std::make_unique<BurstyScheduler>(c1, 1, 8, 12, s); },
            uniform_delay(c.d1, c.d2, seed + 13 * r + 6));
      }
      break;
    }
    case TimingModel::kAsynchronous: {
      add("all-c2/max-delay", fixed(n, c.c2), fixed_delay(c.d2));
      const Duration c2 = c.c2;
      add("slow-one/max-delay",
          [=] {
            return std::make_unique<SlowOneScheduler>(n, c2 / 4, 0, c2);
          },
          fixed_delay(c.d2));
      for (std::int32_t r = 0; r < random_runs; ++r) {
        const std::uint64_t s = seed + 7 * r + 9;
        add("random#" + std::to_string(r),
            [=] {
              return std::make_unique<UniformGapScheduler>(c2 / 16, c2, s);
            },
            uniform_delay(Duration(0), c.d2, seed + 7 * r + 10));
      }
      break;
    }
  }
  return family;
}

std::vector<FamilyMember> smm_worst_case_family(
    const ProblemSpec& spec, const TimingConstraints& constraints,
    std::int32_t random_runs, std::uint64_t seed) {
  const std::int32_t total = smm_total_processes(spec.n, spec.b);
  const TimingConstraints& c = constraints;
  std::vector<FamilyMember> family;
  auto add = [&family](std::string label, auto make_sched) {
    family.push_back(FamilyMember{
        std::move(label),
        [make_sched] { return Adversary{make_sched(), nullptr}; }});
  };
  const auto fixed = [](auto... args) {
    return [=] { return std::make_unique<FixedPeriodScheduler>(args...); };
  };

  switch (c.model) {
    case TimingModel::kSynchronous:
      add("lockstep", fixed(total, c.c2));
      break;
    case TimingModel::kPeriodic:
      add("periods", fixed(c.periods));
      break;
    case TimingModel::kSemiSynchronous: {
      add("all-slow", fixed(total, c.c2));
      add("all-fast", fixed(total, c.c1));
      const Duration c1 = c.c1, c2 = c.c2;
      add("slow-one", [=] {
        return std::make_unique<SlowOneScheduler>(total, c1, 0, c2);
      });
      for (std::int32_t r = 0; r < random_runs; ++r) {
        const std::uint64_t s = seed + 41 * r + 11;
        add("random#" + std::to_string(r),
            [=] { return std::make_unique<UniformGapScheduler>(c1, c2, s); });
      }
      break;
    }
    case TimingModel::kSporadic:
    case TimingModel::kAsynchronous: {
      const Duration base =
          c.model == TimingModel::kSporadic ? c.c1 : Duration(1);
      add("all-base", fixed(total, base));
      add("slow-one", [=] {
        return std::make_unique<SlowOneScheduler>(total, base, 0, base * 16);
      });
      for (std::int32_t r = 0; r < random_runs; ++r) {
        const std::uint64_t s = seed + 59 * r + 13;
        add("bursty#" + std::to_string(r), [=] {
          return std::make_unique<BurstyScheduler>(base, 1, 8, 12, s);
        });
      }
      break;
    }
  }
  return family;
}

WorstCase mpm_worst_case(const ProblemSpec& spec,
                         const TimingConstraints& constraints,
                         const MpmAlgorithmFactory& factory,
                         std::int32_t random_runs, std::uint64_t seed,
                         const RunLimits& limits) {
  return worst_case<MpmSubstrate>(spec, constraints, factory, random_runs,
                                  seed, limits);
}

WorstCase smm_worst_case(const ProblemSpec& spec,
                         const TimingConstraints& constraints,
                         const SmmAlgorithmFactory& factory,
                         std::int32_t random_runs, std::uint64_t seed,
                         const RunLimits& limits) {
  return worst_case<SmmSubstrate>(spec, constraints, factory, random_runs,
                                  seed, limits);
}

std::int32_t DegradationReport::count(RunOutcome outcome) const {
  std::int32_t c = 0;
  for (const DegradationCell& cell : cells)
    if (cell.outcome == outcome) ++c;
  return c;
}

std::string DegradationReport::to_string() const {
  std::ostringstream os;
  os << substrate << " " << algorithm << " degradation:\n";
  for (const DegradationCell& cell : cells) {
    os << "  k=" << cell.crashes << " p=" << cell.fault_percent
       << "%  " << sesp::to_string(cell.outcome)
       << "  sessions=" << cell.sessions
       << (cell.completed ? "  completed" : "  stopped")
       << "  injected=" << cell.injected << "  [" << cell.diagnostic << "]\n";
  }
  return os.str();
}

DegradationReport mpm_degradation(
    const ProblemSpec& spec, const TimingConstraints& constraints,
    const MpmAlgorithmFactory& factory,
    const std::vector<std::int32_t>& crash_counts,
    const std::vector<std::int32_t>& loss_percents, std::uint64_t seed,
    const RunLimits& limits) {
  return degradation<MpmSubstrate>(spec, constraints, factory, crash_counts,
                                   loss_percents, seed, limits);
}

DegradationReport smm_degradation(
    const ProblemSpec& spec, const TimingConstraints& constraints,
    const SmmAlgorithmFactory& factory,
    const std::vector<std::int32_t>& crash_counts,
    const std::vector<std::int32_t>& corrupt_percents, std::uint64_t seed,
    const RunLimits& limits) {
  return degradation<SmmSubstrate>(spec, constraints, factory, crash_counts,
                                   corrupt_percents, seed, limits);
}

ChaosReport mpm_chaos_sweep(const ProblemSpec& spec,
                            const TimingConstraints& constraints,
                            const MpmAlgorithmFactory& factory,
                            std::int32_t runs, std::uint64_t seed,
                            const RunLimits& limits) {
  return chaos<MpmSubstrate>(spec, constraints, factory, runs, seed, limits);
}

ChaosReport smm_chaos_sweep(const ProblemSpec& spec,
                            const TimingConstraints& constraints,
                            const SmmAlgorithmFactory& factory,
                            std::int32_t runs, std::uint64_t seed,
                            const RunLimits& limits) {
  return chaos<SmmSubstrate>(spec, constraints, factory, runs, seed, limits);
}

}  // namespace sesp
