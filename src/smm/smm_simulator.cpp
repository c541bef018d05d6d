#include "smm/smm_simulator.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"

namespace sesp {

// Only compute events exist in the SMM (relay gossip is itself a compute
// step on a shared variable), so the calendar queue degenerates to one FIFO
// lane per distinct time — which is exactly the old (time, seq) heap order.
// Hot-phase timers are sampled (obs::SampledPhaseTimer) so the profiled run
// no longer pays two clock reads per event.

std::int32_t smm_total_processes(std::int32_t n, std::int32_t b) {
  SharedMemory scratch(std::max(b, 2));
  TreeNetwork tree(n, std::max(b, 2), scratch, n);
  return n + tree.num_relays();
}

SmmSimulator::SmmSimulator(const ProblemSpec& spec,
                           const TimingConstraints& constraints,
                           const SmmAlgorithmFactory& factory,
                           StepScheduler& scheduler, FaultInjector* faults,
                           obs::Observer* observer)
    : spec_(spec),
      constraints_(constraints),
      factory_(factory),
      scheduler_(scheduler),
      faults_(faults),
      observer_(observer) {}

SmmRunResult SmmSimulator::run(const RunLimits& limits,
                               Recording recording) {
  return recording == Recording::kTrace
             ? run_as<Recording::kTrace>(limits)
             : run_as<Recording::kVerdictOnly>(limits);
}

template <Recording kMode>
SmmRunResult SmmSimulator::run_as(const RunLimits& limits) {
  constexpr bool kRecord = kMode == Recording::kTrace;
  const std::int32_t n = spec_.n;
  obs::Observer* const o = obs::resolve(observer_);
  obs::Profiler* const prof = o ? o->profiler : nullptr;
  obs::Span run_span(o ? o->trace : nullptr, "smm.run", "sim",
                     o && o->trace
                         ? obs::args_object(
                               {obs::arg_int("n", n),
                                obs::arg_int("s", spec_.s),
                                obs::arg_int("b", spec_.b)})
                         : std::string());
  if (o && o->runs) o->runs->inc();
  if (n <= 0 || (n > 1 && spec_.b < 2)) {
    SmmRunResult result{TimedComputation(Substrate::kSharedMemory,
                                         std::max(n, 0), std::max(n, 0)),
                        false, false, 0, 0, 0, 0, std::nullopt, {},
                        std::nullopt};
    if constexpr (!kRecord)
      result.verdict = VerdictMonitor(Substrate::kSharedMemory, std::max(n, 0),
                                      std::max(n, 0), constraints_)
                           .verdict(spec_.s);
    SimError err;
    err.code = SimErrorCode::kInvalidSpec;
    err.detail = "SMM needs n >= 1 and b >= 2, got n=" + std::to_string(n) +
                 " b=" + std::to_string(spec_.b);
    result.error = std::move(err);
    obs::observe_error(o, *result.error);
    return result;
  }
  SharedMemory mem(std::max(spec_.b, 1));

  // Port variables: accessed only by their port process, so any b works.
  std::vector<VarId> port_var(static_cast<std::size_t>(n));
  // Scratch variables stand in when an algorithm asks for a tree access but
  // no tree exists (n == 1): the step still accesses exactly one variable
  // without becoming a port step.
  std::vector<VarId> scratch_var(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    port_var[static_cast<std::size_t>(p)] =
        mem.create_var({p}, "port" + std::to_string(p));
    scratch_var[static_cast<std::size_t>(p)] =
        mem.create_var({p}, "scratch" + std::to_string(p));
  }

  TreeNetwork tree(n, std::max(spec_.b, 2), mem, n);
  const std::int32_t total = n + tree.num_relays();

  SmmRunResult result{TimedComputation(Substrate::kSharedMemory, total, n),
                      false,
                      false,
                      0,
                      tree.num_relays(),
                      tree.depth(),
                      tree.latency_steps_bound(),
                      std::nullopt,
                      {},
                      std::nullopt};
  // A verdict-only run feeds this monitor every step the trace would have
  // recorded and hands back only its verdict (seal()).
  std::optional<VerdictMonitor> online;
  if constexpr (!kRecord)
    online.emplace(Substrate::kSharedMemory, total, n, constraints_);
  VerdictMonitor* const monitor = online ? &*online : nullptr;
  const auto seal = [&] {
    if (monitor) result.verdict = monitor->verdict(spec_.s);
  };
  TimedComputation& trace = result.trace;
  // Index of the next step; the trace's length when recording.
  std::size_t next_step = 0;
  // Pre-size the step log to the budget (SMM traces carry no messages), so
  // budget-bounded runs never pay the log's geometric reallocations; capped
  // so unbounded budgets stay lazy (docs/performance.md "Data layout").
  if (kRecord && limits.max_steps > 0)
    trace.reserve(static_cast<std::size_t>(std::min<std::int64_t>(
                      limits.max_steps + total, std::int64_t{1} << 18)),
                  0);

  std::vector<std::unique_ptr<SmmPortAlgorithm>> algs;
  algs.reserve(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p)
    algs.push_back(factory_.create(p, spec_, constraints_));

  // Relay gossip state: accumulated knowledge and rotation position.
  std::vector<Knowledge> relay_knowledge(
      static_cast<std::size_t>(tree.num_relays()));
  std::vector<std::size_t> relay_pos(
      static_cast<std::size_t>(tree.num_relays()), 0);
  // Per (relay, rotation slot): the (variable, relay) content stamps after
  // the last gossip exchange there. Matching stamps prove the exchange
  // would join two unchanged values again — a no-op — and skip it; once a
  // livelocked run saturates its subtree's knowledge, every relay visit
  // takes this skip (Knowledge::stamp()). 0 is a real stamp (the empty
  // value), so the sentinel is max.
  constexpr std::uint64_t kNoStamp = ~std::uint64_t{0};
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      relay_memo(static_cast<std::size_t>(tree.num_relays()));
  for (std::size_t r = 0; r < relay_memo.size(); ++r)
    relay_memo[r].assign(tree.relays()[r].rotation.size(),
                         {kNoStamp, kNoStamp});

  CalendarQueue queue;
  obs::SampledPhaseTimer pop_timer(prof, obs::ProfilePhase::kEventQueuePop);
  obs::SampledPhaseTimer step_timer(prof, obs::ProfilePhase::kProcessStep);
  obs::SampledPhaseTimer sched_timer(prof, obs::ProfilePhase::kSchedule);

  std::vector<std::int64_t> step_count(static_cast<std::size_t>(total), 0);
  std::int32_t ports_non_idle = n;
  // Hot-loop observer instruments, resolved once (the compiler cannot hoist
  // the loads past the loop's stores itself).
  obs::Gauge* const g_queue_depth = o ? o->event_queue_depth : nullptr;
  obs::Counter* const c_shared_reads = o ? o->shared_reads : nullptr;
  obs::Counter* const c_steps = o ? o->steps : nullptr;

  auto schedule_step = [&](ProcessId p, std::optional<Time> prev,
                           std::int64_t index) -> bool {
    sched_timer.begin();
    Time t = scheduler_.next_step_time(p, prev, index);
    const Time floor = prev.value_or(Time(0));
    if (faults_) {
      const Time scheduled = t;
      t = faults_->perturb_step_time(p, index, floor, t);
      if (t != scheduled) obs::observe_fault(o, "timing", p, t);
    }
    if (t < floor) {
      SimError err;
      err.code = SimErrorCode::kNonMonotonicSchedule;
      err.detail = "scheduled t=" + t.to_string() + " before t=" +
                   floor.to_string();
      err.process = p;
      err.step_index = static_cast<std::int64_t>(next_step);
      err.time = floor;
      result.error = std::move(err);
      sched_timer.end();
      return false;
    }
    queue.push_compute(t, p);
    sched_timer.end();
    return true;
  };

  for (ProcessId p = 0; p < total; ++p)
    if (!schedule_step(p, std::nullopt, 0)) {
      obs::observe_error(o, *result.error);
      seal();
      return result;
    }

  Time last_event_time(0);
  std::int64_t stagnant_events = 0;
  CalendarQueue::Popped ev;

  while (!queue.empty() && ports_non_idle > 0) {
    pop_timer.begin();
    const std::size_t depth = queue.size();
    queue.pop(ev);
    pop_timer.end();
    if (g_queue_depth)
      g_queue_depth->set(static_cast<std::int64_t>(depth));
    if (result.compute_steps >= limits.max_steps ||
        limits.max_time < ev.time) {
      result.hit_limit = true;
      SimError err;
      const bool steps = result.compute_steps >= limits.max_steps;
      err.code = steps ? SimErrorCode::kStepLimitExceeded
                       : SimErrorCode::kTimeLimitExceeded;
      err.detail = steps ? "compute-step budget " +
                               std::to_string(limits.max_steps) + " exhausted"
                         : "model-time budget " + limits.max_time.to_string() +
                               " exhausted";
      err.step_index = static_cast<std::int64_t>(next_step);
      err.time = ev.time;
      result.error = std::move(err);
      break;
    }
    if (ev.time == last_event_time) {
      if (++stagnant_events > limits.max_stagnant_events) {
        result.hit_limit = true;
        SimError err;
        err.code = SimErrorCode::kNoProgress;
        err.detail = "time pinned at t=" + ev.time.to_string() + " for " +
                     std::to_string(stagnant_events) + " events";
        err.step_index = static_cast<std::int64_t>(next_step);
        err.time = ev.time;
        result.error = std::move(err);
        break;
      }
    } else {
      last_event_time = ev.time;
      stagnant_events = 0;
    }

    const ProcessId p = ev.process;
    const auto pi = static_cast<std::size_t>(p);

    // Crash-stop: ports never idle afterwards; relays stop gossiping, which
    // starves the subtree (the watchdog then ends livelocked runs).
    if (faults_ && faults_->crash_now(p, step_count[pi], ev.time)) {
      obs::observe_fault(o, "crash", p, ev.time);
      result.crashed.push_back(p);
      if (p < n) --ports_non_idle;
      continue;
    }

    step_timer.begin();
    // A verdict-only step fills a scratch record for the monitor instead
    // of a trace slot, and skips the value digests only the trace keeps.
    StepRecord scratch;
    StepRecord& st = kRecord ? trace.append_slot() : scratch;
    ++next_step;
    st.kind = StepKind::kCompute;
    st.process = p;
    st.time = ev.time;

    bool idle = false;
    if (p < n) {
      SmmPortAlgorithm& alg = *algs[pi];
      const SmmChoice choice = alg.choose();
      if (choice == SmmChoice::kPort) {
        const VarId v = port_var[pi];
        Knowledge& value = mem.access(v, p);
        st.var = v;
        st.port = p;
        if constexpr (kRecord) st.value_before_digest = value.digest();
        alg.on_port_access();
        // The port variable's content is immaterial to the algorithms, but
        // a write is recorded so reorderings see a real mutation point.
        value.record(p, alg.advertised());
        if constexpr (kRecord) st.value_after_digest = value.digest();
      } else {
        VarId v = tree.uplink(p);
        if (v == kNoVar) v = scratch_var[pi];
        Knowledge& value = mem.access(v, p);
        st.var = v;
        if constexpr (kRecord) st.value_before_digest = value.digest();
        // Write corruption: the read-modify-write loses the variable's
        // previous contents (lost update) before this process's write.
        if (faults_ && faults_->corrupt_write(v, p, ev.time)) {
          obs::observe_fault(o, "corrupt", p, ev.time);
          value = Knowledge{};
        }
        value.record(p, alg.advertised());
        alg.on_tree_snapshot(value);
        if constexpr (kRecord) st.value_after_digest = value.digest();
      }
      if (c_shared_reads) {
        c_shared_reads->inc();
        o->shared_writes->inc();
      }
      idle = alg.is_idle();
      st.idle_after = idle;
    } else {
      // Relay gossip step.
      const auto r = static_cast<std::size_t>(p - n);
      const RelaySpec& spec = tree.relays()[r];
      const std::size_t slot = relay_pos[r] % spec.rotation.size();
      const VarId v = spec.rotation[slot];
      ++relay_pos[r];
      Knowledge& value = mem.access(v, p);
      st.var = v;
      if constexpr (kRecord) st.value_before_digest = value.digest();
      if (faults_ && faults_->corrupt_write(v, p, ev.time)) {
        obs::observe_fault(o, "corrupt", p, ev.time);
        value = Knowledge{};
      }
      auto& memo = relay_memo[r][slot];
      if (memo.first != value.stamp() ||
          memo.second != relay_knowledge[r].stamp()) {
        value.merge(relay_knowledge[r]);
        relay_knowledge[r].merge(value);
        memo = {value.stamp(), relay_knowledge[r].stamp()};
      }
      if constexpr (kRecord) st.value_after_digest = value.digest();
      if (c_shared_reads) {
        c_shared_reads->inc();
        o->shared_writes->inc();
      }
    }

    if constexpr (!kRecord)
      monitor->compute(p, st.port, st.time, st.idle_after);
    ++result.compute_steps;
    if (c_steps) c_steps->inc();
    ++step_count[pi];
    step_timer.end();

    if (idle) {
      --ports_non_idle;
    } else if (!schedule_step(p, ev.time, step_count[pi])) {
      break;
    }
  }

  result.completed = ports_non_idle == 0 && !result.error;
  if (result.error) obs::observe_error(o, *result.error);
  obs::observe_watchdog_margins(o, result.compute_steps, limits.max_steps,
                                last_event_time, limits.max_time);
  if (o && o->trace)
    run_span.set_args(obs::args_object(
        {obs::arg_int("n", n), obs::arg_int("s", spec_.s),
         obs::arg_int("b", spec_.b),
         obs::arg_int("steps", result.compute_steps),
         obs::arg_int("relays", result.num_relays),
         obs::arg_int("completed", result.completed ? 1 : 0)}));
  seal();
  return result;
}

}  // namespace sesp
