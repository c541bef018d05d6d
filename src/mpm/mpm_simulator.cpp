#include "mpm/mpm_simulator.hpp"

#include <algorithm>
#include <vector>

#include "mpm/message.hpp"
#include "sim/calendar_queue.hpp"

namespace sesp {

// The hot loop drains the calendar queue in same-time lane runs: all compute
// steps at a timestamp, then all deliveries (docs/performance.md). The pop
// order — and with it every observable: trace bytes, fault-hook RNG
// consumption, watchdog trip points, gauge values — is bit-identical to the
// old (time, kind, seq) comparison heap, because delivery events never spawn
// events and a compute step only ever schedules at or after its own time.
// sim_core_equiv_test and the golden corpus pin this.

MpmSimulator::MpmSimulator(const ProblemSpec& spec,
                           const TimingConstraints& constraints,
                           const MpmAlgorithmFactory& factory,
                           StepScheduler& scheduler, DelayStrategy& delays,
                           FaultInjector* faults, obs::Observer* observer)
    : spec_(spec),
      constraints_(constraints),
      factory_(factory),
      scheduler_(scheduler),
      delays_(delays),
      faults_(faults),
      observer_(observer) {}

MpmRunResult MpmSimulator::run(const RunLimits& limits,
                               Recording recording) {
  return recording == Recording::kTrace
             ? run_as<Recording::kTrace>(limits)
             : run_as<Recording::kVerdictOnly>(limits);
}

template <Recording kMode>
MpmRunResult MpmSimulator::run_as(const RunLimits& limits) {
  constexpr bool kRecord = kMode == Recording::kTrace;
  const std::int32_t n = spec_.n;
  obs::Observer* const o = obs::resolve(observer_);
  obs::Profiler* const prof = o ? o->profiler : nullptr;
  obs::Span run_span(o ? o->trace : nullptr, "mpm.run", "sim",
                     o && o->trace
                         ? obs::args_object(
                               {obs::arg_int("n", n),
                                obs::arg_int("s", spec_.s)})
                         : std::string());
  if (o && o->runs) o->runs->inc();
  MpmRunResult result{
      TimedComputation(Substrate::kMessagePassing, std::max(n, 0),
                       std::max(n, 0)),
      false, false, 0, 0, std::nullopt, {}, std::nullopt};
  // A verdict-only run feeds this monitor every step the trace would have
  // recorded and hands back only its verdict (seal()).
  std::optional<VerdictMonitor> online;
  if constexpr (!kRecord)
    online.emplace(Substrate::kMessagePassing, std::max(n, 0), std::max(n, 0),
                   constraints_);
  VerdictMonitor* const monitor = online ? &*online : nullptr;
  const auto seal = [&] {
    if (monitor) result.verdict = monitor->verdict(spec_.s);
  };
  if (n <= 0) {
    SimError err;
    err.code = SimErrorCode::kInvalidSpec;
    err.detail = "MPM needs n >= 1 port processes, got " + std::to_string(n);
    result.error = std::move(err);
    obs::observe_error(o, *result.error);
    seal();
    return result;
  }
  TimedComputation& trace = result.trace;
  // Index of the next step; the trace's length when recording.
  std::size_t next_step = 0;
  // Pre-size the logs to the step budget: a budget-bounded run otherwise
  // reallocates the step log ~18 times, and the final doublings memcpy tens
  // of megabytes (docs/performance.md "Data layout"). Capped so unbounded
  // budgets stay lazy; untouched reserved pages cost only address space.
  if (kRecord && limits.max_steps > 0) {
    const auto budget = static_cast<std::size_t>(
        std::min<std::int64_t>(limits.max_steps, std::int64_t{1} << 17));
    trace.reserve(3 * budget, 3 * budget);
  }

  std::vector<std::unique_ptr<MpmAlgorithm>> algs;
  algs.reserve(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p)
    algs.push_back(factory_.create(p, spec_, constraints_));

  CalendarQueue queue;
  obs::SampledPhaseTimer pop_timer(prof, obs::ProfilePhase::kEventQueuePop);
  obs::SampledPhaseTimer deliver_timer(prof, obs::ProfilePhase::kDeliver);
  obs::SampledPhaseTimer step_timer(prof, obs::ProfilePhase::kProcessStep);
  obs::SampledPhaseTimer sched_timer(prof, obs::ProfilePhase::kSchedule);

  std::vector<std::int64_t> step_count(static_cast<std::size_t>(n), 0);
  // Messages delivered to each process but not yet picked up by a step (the
  // paper's buf_p, as message ids). The Network substrate is bypassed: a
  // step reconstructs each payload from the trace's own MessageRecord — the
  // same cache line the loop writes deliver_step into — so the hot loop
  // maintains no separate in-transit structure (docs/performance.md "Data
  // layout"). Per-process vectors are cleared, never destroyed: capacity is
  // reused across the whole run.
  //
  // A verdict-only run keeps no message log: a message in flight is one
  // slot of `in_flight` (payload, send time) and the queue and buf_p carry
  // slot indices in place of message ids. A step frees the slots it
  // drains, so the pool stays as small as the peak number of undelivered
  // and unreceived messages. `next_id` keeps the hooks' message ids
  // sequential, exactly as the log would number them.
  std::vector<std::vector<MsgId>> pending(static_cast<std::size_t>(n));
  struct InFlight {
    MpmMessage payload;
    Time sent;
  };
  std::vector<InFlight> in_flight;
  std::vector<MsgId> free_slots;
  MsgId next_id = 0;
  const auto park = [&](const MpmMessage& payload, const Time& sent) {
    if (free_slots.empty()) {
      in_flight.push_back(InFlight{payload, sent});
      return static_cast<MsgId>(in_flight.size() - 1);
    }
    const MsgId slot = free_slots.back();
    free_slots.pop_back();
    in_flight[static_cast<std::size_t>(slot)] = InFlight{payload, sent};
    return slot;
  };
  std::int32_t non_idle = n;
  // Per-step receive scratch, reused across the whole run so the steady
  // state allocates nothing.
  std::vector<MpmMessage> received;
  // Hot-loop observer instruments, resolved once (the compiler cannot hoist
  // the loads past the loop's stores itself).
  obs::Gauge* const g_queue_depth = o ? o->event_queue_depth : nullptr;
  obs::Gauge* const g_pending_depth = o ? o->pending_depth : nullptr;
  obs::Counter* const c_delivered = o ? o->messages_delivered : nullptr;
  obs::Counter* const c_steps = o ? o->steps : nullptr;
  obs::Counter* const c_sent = o ? o->messages_sent : nullptr;
  obs::Counter* const c_dropped = o ? o->messages_dropped : nullptr;

  // Schedules p's next compute step, applying any injected timing violation
  // and rejecting schedules that run backwards in time.
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

  for (ProcessId p = 0; p < n; ++p)
    if (!schedule_step(p, std::nullopt, 0)) {
      obs::observe_error(o, *result.error);
      seal();
      return result;
    }

  Time last_event_time(0);
  std::int64_t stagnant_events = 0;
  bool stop = false;
  CalendarQueue::Popped ev;

  // Per-event bookkeeping shared by both lanes, in the exact order of the
  // old loop: depth gauge (pre-pop queue size), then budget watchdogs, then
  // the no-progress watchdog. True means a watchdog tripped.
  auto watchdogs = [&]() -> bool {
    if (g_queue_depth)
      g_queue_depth->set(static_cast<std::int64_t>(queue.size()) + 1);
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
      return true;
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
        return true;
      }
    } else {
      last_event_time = ev.time;
      stagnant_events = 0;
    }
    return false;
  };

  while (!stop && !queue.empty() && non_idle > 0) {
    pop_timer.begin();
    const CalendarQueue::Lane lane = queue.peek_lane();
    pop_timer.end();

    if (lane == CalendarQueue::Lane::kDeliver) {
      deliver_timer.begin();
      do {
        queue.pop(ev);
        if (watchdogs()) {
          stop = true;
          break;
        }
        const std::size_t index = next_step++;
        if constexpr (kRecord) {
          StepRecord& st = trace.append_slot();
          st.kind = StepKind::kDeliver;
          st.process = kNetworkProcess;
          st.time = ev.time;
          st.delivered = ev.message;
          trace.mutable_messages()[static_cast<std::size_t>(ev.message)]
              .deliver_step = index;
        } else {
          monitor->deliver(
              ev.time, in_flight[static_cast<std::size_t>(ev.message)].sent);
        }
        // The queue's recipient is the message's (push_deliver below).
        auto& buf = pending[static_cast<std::size_t>(ev.process)];
        buf.push_back(ev.message);
        if (c_delivered) {
          c_delivered->inc();
          g_pending_depth->set(static_cast<std::int64_t>(buf.size()));
        }
      } while (!queue.empty() &&
               queue.peek_lane() == CalendarQueue::Lane::kDeliver);
      deliver_timer.end();
      continue;
    }

    step_timer.begin();
    do {
      queue.pop(ev);
      if (watchdogs()) {
        stop = true;
        break;
      }

      const ProcessId p = ev.process;
      const auto pi = static_cast<std::size_t>(p);

      // Crash-stop: the process halts in place of this step; it never idles
      // and takes no further steps. Messages already in flight to it still
      // deliver into its (never drained) buffer.
      if (faults_ && faults_->crash_now(p, step_count[pi], ev.time)) {
        obs::observe_fault(o, "crash", p, ev.time);
        result.crashed.push_back(p);
        --non_idle;
        continue;
      }

      // Receive half of the step: rebuild buf_p's payloads from the trace's
      // message records, in delivery order (the scratch vector keeps its
      // capacity, so steady-state steps do no heap traffic).
      received.clear();
      for (const MsgId id : pending[pi]) {
        if constexpr (kRecord) {
          const MessageRecord& m =
              trace.messages()[static_cast<std::size_t>(id)];
          received.push_back(
              MpmMessage{m.sender, m.session, m.steps, m.done});
        } else {
          received.push_back(in_flight[static_cast<std::size_t>(id)].payload);
          free_slots.push_back(id);
        }
      }
      const MpmStepResult action = algs[pi]->on_step(
          std::span<const MpmMessage>(received.data(), received.size()));

      // In the MPM every compute step of p involves buf_p, its port.
      const std::size_t step_index = next_step++;
      if constexpr (kRecord) {
        StepRecord& st = trace.append_slot();
        st.kind = StepKind::kCompute;
        st.process = p;
        st.time = ev.time;
        st.port = p;
        st.idle_after = action.idle;
        // Mark receipt of everything drained at this step.
        for (const MsgId id : pending[pi])
          trace.mutable_messages()[static_cast<std::size_t>(id)]
              .receive_step = step_index;
      } else {
        monitor->compute(p, p, ev.time, action.idle);
      }
      ++result.compute_steps;
      if (c_steps) c_steps->inc();
      pending[pi].clear();

      if (action.broadcast) {
        const MpmMessage payload{p, action.message.session,
                                 action.message.steps, action.message.done};
        for (ProcessId q = 0; q < n && !result.error; ++q) {
          MsgId id;
          if constexpr (kRecord) {
            MessageRecord& rec = trace.append_message_slot();
            rec.sender = p;
            rec.recipient = q;
            rec.send_step = step_index;
            rec.session = payload.session;
            rec.steps = payload.steps;
            rec.done = payload.done;
            id = rec.id;
          } else {
            id = next_id++;
          }
          ++result.messages_sent;
          if (c_sent) c_sent->inc();

          const MessageAction act =
              faults_ ? faults_->on_send(id, p, q, ev.time) : MessageAction{};
          if (act.drop) {  // lost: sent but never enters the net
            if (c_dropped) c_dropped->inc();
            obs::observe_fault(o, "drop", p, ev.time);
            continue;
          }
          if (act.extra_delay.is_positive())
            obs::observe_fault(o, "delay", p, ev.time);

          const Duration delay =
              delays_.delay(p, q, ev.time, id) + act.extra_delay;
          queue.push_deliver(ev.time + delay, q,
                             kRecord ? id : park(payload, ev.time));

          if (act.duplicate) {
            // The duplicate is a distinct trace message with the same
            // payload, delivered after an extra delay (copied before the
            // append so the source reference cannot dangle).
            obs::observe_fault(o, "duplicate", p, ev.time);
            MsgId dup_id;
            if constexpr (kRecord) {
              MessageRecord dup =
                  trace.messages()[static_cast<std::size_t>(id)];
              dup_id = trace.append_message(dup);
            } else {
              ++next_id;
              dup_id = park(payload, ev.time);
            }
            queue.push_deliver(ev.time + delay + act.extra_delay, q, dup_id);
            ++result.messages_sent;
            if (c_sent) c_sent->inc();
          }
        }
        if (result.error) {
          stop = true;
          break;
        }
      }

      ++step_count[pi];

      if (action.idle) {
        --non_idle;
      } else if (!schedule_step(p, ev.time, step_count[pi])) {
        stop = true;
        break;
      }
    } while (non_idle > 0 && !queue.empty() &&
             queue.peek_lane() == CalendarQueue::Lane::kCompute);
    step_timer.end();
  }

  result.completed = non_idle == 0 && !result.error;
  if (result.error) obs::observe_error(o, *result.error);
  obs::observe_watchdog_margins(o, result.compute_steps, limits.max_steps,
                                last_event_time, limits.max_time);
  if (o && o->trace)
    run_span.set_args(obs::args_object(
        {obs::arg_int("n", n), obs::arg_int("s", spec_.s),
         obs::arg_int("steps", result.compute_steps),
         obs::arg_int("messages", result.messages_sent),
         obs::arg_int("completed", result.completed ? 1 : 0)}));
  seal();
  return result;
}

}  // namespace sesp
