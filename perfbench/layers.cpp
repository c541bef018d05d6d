// sesp_layers: the in-process layer tour of the end-to-end benchmark
// (perfbench/NOTES.md). It reads a plan written by run.py, calls the public
// functions of each src/ module on the plan's inputs, records a span around
// every call into a layer, and prints the per-layer metrics.
//
//   sesp_layers --plan=FILE --work-dir=DIR --spans=FILE --jobs=N
//
// Plan lines (one input each, generated from the workload seed):
//   cell <mpm|smm> <model> <s> <n> <seed>    a Table-1 cell
//   campaign <cases_per_cell> <seed>         a conformance campaign
//   request <json line>                      a request of the served traffic
//
// Output on stdout, one per line:
//   metric <name> <value> <unit>
//   check <attempted> <failed> [first failure]
//
// The core of the tour (simulator runs, verify, the conformance case
// pipeline, journal and payload codec, protocol functions) runs five times:
// a warm-up, then traced and untraced passes in turn; trace.overhead is the
// traced CPU time over the untraced CPU time of the two pairs.
// The worst-case sweeps and the in-process campaigns run once, traced.
// Spans are kept in memory and written to --spans at the end as JSON lines
// with their self time. The served requests themselves are timed by run.py
// against the real sesp_serve; it appends their spans to the same file.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
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
#include "cli_recovery.hpp"
#include "conformance/generator.hpp"
#include "conformance/harness.hpp"
#include "conformance/oracles.hpp"
#include "exec/thread_pool.hpp"
#include "mpm/mpm_simulator.hpp"
#include "recovery/journal.hpp"
#include "recovery/payload.hpp"
#include "serve/protocol.hpp"
#include "session/verifier.hpp"
#include "sim/experiment.hpp"
#include "smm/smm_simulator.hpp"
#include "timing/admissibility.hpp"

namespace {

using namespace sesp;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Spans ------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string tag;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;
};

class Tracer {
 public:
  bool on() const noexcept { return on_; }
  void set_on(bool on) noexcept { on_ = on; }

  std::uint64_t next_id() noexcept { return next_.fetch_add(1); }

  void add(SpanRecord record) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(record));
  }

  // Durations in ns of every span called `name` (optionally with `tag`).
  std::vector<double> durations(const std::string& name,
                                const std::string& tag = "*") const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_)
      if (s.name == name && (tag == "*" || s.tag == tag))
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
  }

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  bool on_ = false;
  std::atomic<std::uint64_t> next_{1};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;
std::atomic<int> g_next_thread{0};
thread_local int t_thread = g_next_thread.fetch_add(1);
thread_local std::uint64_t t_current = 0;

// RAII span around one call into a layer. Its parent is the innermost open
// span on the same thread, or `parent` when given (work handed to a pool).
class Span {
 public:
  explicit Span(const char* name, std::string tag = {},
                std::uint64_t parent = ~std::uint64_t{0}) {
    if (!g_tracer.on()) return;
    record_.id = g_tracer.next_id();
    record_.parent = parent == ~std::uint64_t{0} ? t_current : parent;
    record_.name = name;
    record_.tag = std::move(tag);
    record_.thread = t_thread;
    saved_ = t_current;
    t_current = record_.id;
    record_.start_ns = now_ns();
  }
  ~Span() {
    if (record_.id == 0) return;
    record_.end_ns = now_ns();
    t_current = saved_;
    g_tracer.add(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return record_.id; }

 private:
  SpanRecord record_;
  std::uint64_t saved_ = 0;
};

// Self time: a span's duration minus the union of its children's intervals.
void write_spans(const std::string& path) {
  const auto& spans = g_tracer.spans();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanRecord& s : spans)
    if (s.parent) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);

  std::ofstream out(path);
  for (const SpanRecord& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t lo = 0, hi = 0;
      bool open = false;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
        } else {
          if (open) covered += hi - lo;
          lo = a;
          hi = b;
          open = true;
        }
      }
      if (open) covered += hi - lo;
    }
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"tag\":\"" << s.tag << "\",\"thread\":" << s.thread
        << ",\"start_us\":" << (s.start_ns - origin) / 1000.0
        << ",\"end_us\":" << (s.end_ns - origin) / 1000.0
        << ",\"self_us\":" << (s.end_ns - s.start_ns - covered) / 1000.0
        << "}\n";
  }
}

// --- Metrics and checks -----------------------------------------------------

void metric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.9g %s\n", name.c_str(), value, unit);
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Checks {
  std::mutex mu;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first;

  void note(bool ok, const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (ok) return;
    ++failed;
    if (first.empty()) first = what;
  }
};

Checks g_checks;

// --- Plan -------------------------------------------------------------------

struct Cell {
  std::string substrate;
  std::string model;
  std::int64_t s = 0;
  std::int32_t n = 0;
  std::uint64_t seed = 0;

  std::string label() const {
    return substrate + "/" + model + "/s" + std::to_string(s);
  }
};

struct Plan {
  std::vector<Cell> cells;
  std::int64_t cases_per_cell = 0;
  std::uint64_t campaign_seed = 1;
  std::vector<std::string> requests;
};

bool read_plan(const std::string& path, Plan* plan) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::string kind;
    is >> kind;
    if (kind == "cell") {
      Cell c;
      is >> c.substrate >> c.model >> c.s >> c.n >> c.seed;
      plan->cells.push_back(c);
    } else if (kind == "campaign") {
      is >> plan->cases_per_cell >> plan->campaign_seed;
    } else if (kind == "request") {
      std::string request;
      is >> std::ws;
      std::getline(is, request);
      plan->requests.push_back(request);
    } else if (!kind.empty()) {
      return false;
    }
    if (!is && !is.eof()) return false;
  }
  return true;
}

// --- Sim, verify, model, exec: one canonical fixed-period run per cell ------

struct ModelSetup {
  TimingConstraints constraints;
  std::unique_ptr<FixedPeriodScheduler> scheduler;
};

// sesp_cli's default constants (c1=1 c2=2 d1=0 d2=4) and a fixed-period
// adversary: the periodic model's own periods, otherwise every process
// steps every c2, which each model admits.
ModelSetup model_setup(const std::string& model, std::int32_t processes) {
  const Ratio c1 = 1, c2 = 2, d1 = 0, d2 = 4;
  ModelSetup m;
  if (model == "sync") {
    m.constraints = TimingConstraints::synchronous(c2, d2);
  } else if (model == "periodic") {
    std::vector<Duration> periods;
    for (std::int32_t i = 0; i < processes; ++i)
      periods.push_back(c1 + (c2 - c1) * (processes > 1
                                              ? Ratio(i, processes - 1)
                                              : Ratio(0)));
    m.constraints = TimingConstraints::periodic(periods, d2);
    m.scheduler = std::make_unique<FixedPeriodScheduler>(periods);
    return m;
  } else if (model == "semisync") {
    m.constraints = TimingConstraints::semi_synchronous(c1, c2, d2);
  } else if (model == "sporadic") {
    m.constraints = TimingConstraints::sporadic(c1, d1, d2);
  } else {
    m.constraints = TimingConstraints::asynchronous(c2, d2);
  }
  m.scheduler = std::make_unique<FixedPeriodScheduler>(processes, c2);
  return m;
}

std::unique_ptr<MpmAlgorithmFactory> mpm_factory(const std::string& model) {
  if (model == "sync") return std::make_unique<SyncMpmFactory>();
  if (model == "periodic") return std::make_unique<PeriodicMpmFactory>();
  if (model == "semisync") return std::make_unique<SemiSyncMpmFactory>();
  if (model == "sporadic") return std::make_unique<SporadicMpmFactory>();
  return std::make_unique<AsyncMpmFactory>();
}

std::unique_ptr<SmmAlgorithmFactory> smm_factory(const std::string& model) {
  if (model == "sync") return std::make_unique<SyncSmmFactory>();
  if (model == "periodic") return std::make_unique<PeriodicSmmFactory>();
  if (model == "semisync") return std::make_unique<SemiSyncSmmFactory>();
  return std::make_unique<AsyncSmmFactory>();
}

struct RunStats {
  std::int64_t steps = 0;        // trace records (all step kinds)
  std::int64_t messages = 0;
  bool hit_limit = false;
};

// Times the simulator run, verify and the admissibility scan of one run.
template <typename Simulate>
RunStats observe_run(const Cell& cell, const ProblemSpec& spec,
                     const TimingConstraints& constraints,
                     const char* substrate, Simulate simulate) {
  std::optional<decltype(simulate())> run;
  {
    Span s("sim.run", substrate);
    run.emplace(simulate());
  }
  Verdict verdict;
  {
    Span s("verify");
    verdict = verify(run->trace, spec, constraints);
  }
  AdmissibilityReport adm;
  {
    Span s("verify.admissibility");
    adm = check_admissible(run->trace, constraints);
  }
  g_checks.note(verdict.solves && adm.admissible, "cell " + cell.label());
  return RunStats{static_cast<std::int64_t>(run->trace.steps().size()),
                  static_cast<std::int64_t>(run->trace.messages().size()),
                  run->hit_limit};
}

RunStats run_cell_once(const Cell& cell, std::uint64_t parent) {
  Span task("exec.task", cell.label(), parent);
  const ProblemSpec spec{cell.s, cell.n, 2};
  if (cell.substrate == "mpm") {
    ModelSetup m = model_setup(cell.model, spec.n);
    const auto factory = mpm_factory(cell.model);
    FixedDelay delay(Ratio(4));
    return observe_run(cell, spec, m.constraints, "mpm", [&] {
      return MpmSimulator(spec, m.constraints, *factory, *m.scheduler, delay)
          .run();
    });
  }
  ModelSetup m = model_setup(cell.model, smm_total_processes(spec.n, spec.b));
  const auto factory = smm_factory(cell.model);
  return observe_run(cell, spec, m.constraints, "smm", [&] {
    return SmmSimulator(spec, m.constraints, *factory, *m.scheduler).run();
  });
}

std::vector<RunStats> sim_segment(const std::vector<Cell>& cells, int jobs) {
  std::vector<RunStats> stats(cells.size());
  Span pool("exec.pool");
  const std::uint64_t parent = pool.id();
  exec::parallel_for_each(
      cells.size(),
      [&](std::size_t i) { stats[i] = run_cell_once(cells[i], parent); },
      jobs);
  return stats;
}

void worst_case_sweeps(const std::vector<Cell>& cells) {
  for (const Cell& cell : cells) {
    const ProblemSpec spec{cell.s, cell.n, 2};
    WorstCase wc;
    Span s("worst_case", cell.label());
    if (cell.substrate == "mpm") {
      const ModelSetup m = model_setup(cell.model, spec.n);
      wc = mpm_worst_case(spec, m.constraints, *mpm_factory(cell.model), 4,
                          cell.seed);
    } else {
      const ModelSetup m =
          model_setup(cell.model, smm_total_processes(spec.n, spec.b));
      wc = smm_worst_case(spec, m.constraints, *smm_factory(cell.model), 4,
                          cell.seed);
    }
    g_checks.note(wc.all_solved, "worst case " + cell.label());
  }
}

// --- Conformance, recovery: the per-case pipeline of a campaign ------------

// The harness's case codec is private to it; this writes the same fields
// (failure details aside) through the public payload writer.
std::string encode_result(const conformance::CaseResult& r) {
  recovery::PayloadWriter w;
  w.put_bool("ran", r.ran);
  w.put_int("sessions", r.sessions);
  w.put_int("steps", r.steps);
  w.put_int("nfail", static_cast<std::int64_t>(r.failures.size()));
  return w.str();
}

struct CampaignStats {
  std::int64_t appends = 0;
  std::int64_t bytes = 0;
};

CampaignStats conformance_segment(const Plan& plan, std::int64_t cases,
                                  const std::string& journal_path) {
  CampaignStats stats;
  std::string error;
  auto journal =
      recovery::RunJournal::create(journal_path, "sesp_layers", 1, &error);
  if (!journal) {
    g_checks.note(false, "journal create: " + error);
    return stats;
  }
  const auto& models = conformance::all_models();
  const auto& substrates = conformance::all_substrates();
  std::vector<conformance::CaseResult> expected;
  std::uint64_t slot = 0;
  for (std::size_t cell = 0; cell < models.size() * substrates.size();
       ++cell) {
    for (std::int64_t index = 0; index < cases; ++index, ++slot) {
      Span c("conformance.case");
      conformance::CaseDescriptor d;
      {
        Span s("conformance.generate");
        d = conformance::generate_case(
            models[cell / substrates.size()],
            substrates[cell % substrates.size()],
            conformance::case_seed(plan.campaign_seed, cell,
                                   static_cast<std::uint64_t>(index)));
      }
      {
        Span s("conformance.run");
        const conformance::GeneratedRun run = conformance::run_case(d);
        g_checks.note(run.ok, "run_case " + d.to_string());
      }
      conformance::CaseResult result;
      {
        Span s("conformance.check");
        result = conformance::check_case(d, conformance::OracleOptions{});
      }
      g_checks.note(result.ok(), "check_case " + d.to_string());
      std::string payload;
      {
        Span s("payload.encode");
        payload = encode_result(result);
      }
      {
        Span s("journal.append");
        journal->append("tour.cases", slot, payload);
      }
      ++stats.appends;
      stats.bytes += static_cast<std::int64_t>(payload.size());
      expected.push_back(result);
    }
  }
  journal.reset();

  recovery::JournalSnapshot snapshot;
  {
    Span s("journal.read");
    snapshot = recovery::read_journal_snapshot(journal_path);
  }
  g_checks.note(snapshot.ok && snapshot.records.size() == expected.size(),
                "journal read back " + snapshot.error);
  for (const recovery::JournalRecord& record : snapshot.records) {
    Span s("payload.decode");
    const recovery::PayloadReader reader(record.payload);
    const bool same =
        record.slot < expected.size() &&
        reader.get_bool("ran", false) == expected[record.slot].ran &&
        reader.get_int("sessions", -1) == expected[record.slot].sessions &&
        reader.get_int("steps", -1) == expected[record.slot].steps;
    g_checks.note(reader.ok() && same, "payload round trip");
  }
  return stats;
}

// The campaign as sesp_conformance runs it, in-process: plain, journaled
// (fsync per the environment, default on) and as shard worker 0 of 1.
struct CampaignWalls {
  double plain_s = 0, journaled_s = 0, sharded_s = 0;
  std::int64_t lease_events = 0;
};

CampaignWalls inprocess_campaigns(const Plan& plan, std::int64_t cases,
                                  int jobs, const std::string& dir) {
  conformance::ConformanceConfig config;
  config.seed = plan.campaign_seed;
  config.cases_per_cell = cases;
  config.jobs = jobs;
  CampaignWalls walls;
  std::string reference;
  const auto timed = [&](const char* tag, const RecoveryOptions* options,
                         double* wall_s) {
    Span s("campaign", tag);
    const std::int64_t t0 = now_ns();
    std::string summary;
    if (options) {
      RecoveryScope scope(*options, "sesp_layers", 2);
      g_checks.note(!scope.error(), std::string("recovery scope ") + tag);
      summary = conformance::run_conformance(config).summary();
    } else {
      summary = conformance::run_conformance(config).summary();
    }
    *wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (reference.empty()) reference = summary;
    g_checks.note(summary == reference && summary.find("failures 0") !=
                                              std::string::npos,
                  std::string("campaign report ") + tag);
  };
  timed("plain", nullptr, &walls.plain_s);
  RecoveryOptions journaled;
  journaled.journal = dir + "/campaign.journal";
  timed("journaled", &journaled, &walls.journaled_s);
  RecoveryOptions worker;
  worker.shard_dir = dir + "/shard";
  worker.worker_id = 0;
  timed("sharded", &worker, &walls.sharded_s);
  const recovery::JournalSnapshot snap =
      recovery::read_journal_snapshot(worker.shard_dir + "/worker-0.journal");
  walls.lease_events = static_cast<std::int64_t>(snap.leases.size());
  return walls;
}

// --- Serve: protocol functions --------------------------------------------

void protocol_segment(const Plan& plan) {
  const serve::ProtocolLimits limits;
  for (const std::string& line : plan.requests) {
    serve::Request request;
    std::string error;
    bool ok = false;
    {
      Span s("serve.parse");
      ok = serve::parse_request(line, limits, &request, &error);
    }
    std::string rendered;
    {
      Span s("serve.render");
      rendered = serve::render_request(request);
    }
    serve::Request again;
    g_checks.note(ok && serve::parse_request(rendered, limits, &again, &error) &&
                      serve::request_digest(again) ==
                          serve::request_digest(request),
                  "protocol round trip " + line);
  }
}

// --- Tour -------------------------------------------------------------------

struct Options {
  std::string plan;
  std::string work_dir;
  std::string spans;
  int jobs = 1;
};

// CPU time of the whole process (every pool thread), in ns. The core
// pass's wall is mostly journal fsync waits, which tracing cannot change
// and which vary with the disk, so the overhead is taken on CPU time.
std::int64_t process_cpu_ns() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

std::int64_t core_pass(const Plan& plan, std::int64_t cases,
                       const std::string& journal_path, int jobs,
                       std::vector<RunStats>* sim_stats,
                       CampaignStats* campaign_stats) {
  const std::int64_t t0 = process_cpu_ns();
  {
    Span s("segment.sim");
    *sim_stats = sim_segment(plan.cells, jobs);
  }
  {
    Span s("segment.conformance");
    *campaign_stats = conformance_segment(plan, cases, journal_path);
  }
  {
    Span s("segment.protocol");
    protocol_segment(plan);
  }
  return process_cpu_ns() - t0;
}

constexpr int kTracedPasses = 2;

double ms(double ns) { return ns / 1e6; }
double us(double ns) { return ns / 1e3; }

int run(const Options& opt) {
  Plan plan;
  if (!read_plan(opt.plan, &plan)) {
    std::cerr << "sesp_layers: cannot read plan " << opt.plan << "\n";
    return 2;
  }
  // The per-case pipeline is serial; a fifth of the campaign's cases keeps
  // the three core passes short while drawing from the same case stream.
  const std::int64_t tour_cases = std::max<std::int64_t>(
      1, plan.cases_per_cell / 5);

  // A warm-up pass, then traced and untraced passes alternated, so that
  // neither side is favoured by cold caches or by going first.
  std::vector<RunStats> sim_stats;
  CampaignStats campaign_stats;
  std::int64_t traced = 0, untraced = 0;
  for (int pass = 0; pass < 2 * kTracedPasses + 1; ++pass) {
    const bool on = pass % 2 == 1;
    g_tracer.set_on(on);
    const std::int64_t cpu = core_pass(
        plan, tour_cases,
        opt.work_dir + "/core-" + std::to_string(pass) + ".journal", opt.jobs,
        &sim_stats, &campaign_stats);
    if (on) traced += cpu;
    else if (pass > 0) untraced += cpu;
  }
  g_tracer.set_on(true);

  CampaignWalls walls;
  {
    Span s("segment.once");
    worst_case_sweeps(plan.cells);
    walls = inprocess_campaigns(plan, plan.cases_per_cell, opt.jobs,
                                opt.work_dir);
  }
  g_tracer.set_on(false);

  // sim / mpm / smm
  std::int64_t steps = 0, limit_steps = 0, steps_max = 0;
  double bytes_max = 0;
  for (const RunStats& r : sim_stats) {
    steps += r.steps;
    if (r.hit_limit) limit_steps += r.steps;
    steps_max = std::max(steps_max, r.steps);
    bytes_max = std::max(
        bytes_max, static_cast<double>(r.steps) * sizeof(StepRecord) +
                       static_cast<double>(r.messages) * sizeof(MessageRecord));
  }
  // Sums over the traced core passes are reported per pass.
  const double passes = kTracedPasses;
  const double sim_ns = sum(g_tracer.durations("sim.run")) / passes;
  metric("sim.run_ms", ms(sim_ns), "ms");
  metric("sim.steps", static_cast<double>(steps), "count");
  metric("sim.ns_per_step", steps ? sim_ns / static_cast<double>(steps) : 0,
         "ns");
  metric("sim.limit_steps_share",
         steps ? static_cast<double>(limit_steps) / static_cast<double>(steps)
               : 0,
         "ratio");

  // session / timing
  const double verify_ns = sum(g_tracer.durations("verify")) / passes;
  const double adm_ns =
      sum(g_tracer.durations("verify.admissibility")) / passes;
  const double busy_ns = sum(g_tracer.durations("exec.task")) / passes;
  metric("verify.ms", ms(verify_ns), "ms");
  metric("verify.admissibility_ms", ms(adm_ns), "ms");
  metric("verify.share", busy_ns > 0 ? verify_ns / busy_ns : 0, "ratio");

  // model
  metric("trace.steps_max", static_cast<double>(steps_max), "count");
  metric("trace.bytes_computed", bytes_max, "bytes");

  // exec: busy time over pool capacity (wall x jobs), and the share of the
  // capacity left idle at the end of each pool while stragglers ran.
  double pool_wall = 0, idle = 0;
  for (const SpanRecord& pool : g_tracer.spans()) {
    if (pool.name != "exec.pool") continue;
    std::map<int, std::int64_t> last_end;
    for (const SpanRecord& s : g_tracer.spans())
      if (s.name == "exec.task" && s.parent == pool.id)
        last_end[s.thread] = std::max(last_end[s.thread], s.end_ns);
    const double wall = static_cast<double>(pool.end_ns - pool.start_ns);
    pool_wall += wall;
    for (const auto& [thread, end] : last_end)
      idle += static_cast<double>(pool.end_ns - end);
    idle += std::max(0.0, opt.jobs - static_cast<double>(last_end.size())) *
            wall;
  }
  const double capacity = pool_wall / passes * opt.jobs;
  metric("exec.busy_ms", ms(busy_ns), "ms");
  metric("exec.wall_ms", ms(pool_wall / passes), "ms");
  metric("exec.efficiency", capacity > 0 ? busy_ns / capacity : 0, "ratio");
  metric("exec.straggler_share", capacity > 0 ? idle / passes / capacity : 0,
         "ratio");
  metric("worst_case.ms", ms(sum(g_tracer.durations("worst_case"))),
         "ms");

  // recovery
  const auto appends = g_tracer.durations("journal.append");
  metric("journal.append_us.p50", us(quantile(appends, 0.5)), "us");
  metric("journal.append_us.p99", us(quantile(appends, 0.99)), "us");
  metric("journal.appends", static_cast<double>(campaign_stats.appends),
         "count");
  metric("journal.bytes", static_cast<double>(campaign_stats.bytes), "bytes");
  metric("journal.read_ms",
         ms(sum(g_tracer.durations("journal.read")) / passes), "ms");
  metric("payload.encode_us", us(mean(g_tracer.durations("payload.encode"))),
         "us");
  metric("payload.decode_us", us(mean(g_tracer.durations("payload.decode"))),
         "us");
  metric("recovery.overhead_s", walls.journaled_s - walls.plain_s, "s");

  // conformance
  metric("conformance.generate_us",
         us(mean(g_tracer.durations("conformance.generate"))), "us");
  metric("conformance.run_us", us(mean(g_tracer.durations("conformance.run"))),
         "us");
  metric("conformance.check_us",
         us(mean(g_tracer.durations("conformance.check"))), "us");

  // shard
  metric("shard.lease_events", static_cast<double>(walls.lease_events),
         "count");
  metric("shard.overhead_s", walls.sharded_s - walls.journaled_s, "s");

  // serve
  metric("serve.parse_us", us(mean(g_tracer.durations("serve.parse"))), "us");
  metric("serve.render_us", us(mean(g_tracer.durations("serve.render"))),
         "us");

  // obs
  metric("trace.overhead",
         untraced > 0 ? static_cast<double>(traced) /
                            static_cast<double>(untraced)
                      : 0,
         "ratio");

  if (!opt.spans.empty()) write_spans(opt.spans);
  std::printf("check %lld %lld %s\n",
              static_cast<long long>(g_checks.attempted),
              static_cast<long long>(g_checks.failed), g_checks.first.c_str());
  return g_checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--plan") opt.plan = value;
    else if (key == "--work-dir") opt.work_dir = value;
    else if (key == "--spans") opt.spans = value;
    else if (key == "--jobs") opt.jobs = std::max(1, std::stoi(value));
    else {
      std::cerr << "usage: sesp_layers --plan=FILE --work-dir=DIR "
                   "--spans=FILE --jobs=N\n";
      return 2;
    }
  }
  if (opt.plan.empty() || opt.work_dir.empty()) {
    std::cerr << "sesp_layers: --plan and --work-dir are required\n";
    return 2;
  }
  return run(opt);
}
