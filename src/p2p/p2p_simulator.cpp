#include "p2p/p2p_simulator.hpp"

#include <memory>
#include <vector>

#include "sim/calendar_queue.hpp"

namespace sesp {

namespace {

// In-flight / delivered-but-unreceived gossip payloads, as a MsgId-indexed
// slot arena (docs/performance.md "Data layout"). Payload slots are
// released when a message is received and reassigned to later sends;
// because reassignment copy-assigns into the retired Knowledge, its entry
// buffer's capacity is reused — the steady state allocates nothing, where
// the old std::map<MsgId, Knowledge> paid a node allocation plus a fresh
// Knowledge copy per message sent.
class PayloadArena {
 public:
  enum : std::uint8_t { kNone = 0, kInFlight = 1, kBuffered = 2 };

  std::uint8_t state(MsgId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < state_.size()
               ? state_[static_cast<std::size_t>(id)]
               : static_cast<std::uint8_t>(kNone);
  }

  void send(MsgId id, const Knowledge& payload) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= state_.size()) {
      state_.resize(i + 1, kNone);
      slot_of_.resize(i + 1, -1);
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = payload;  // reuses the retired Knowledge's capacity
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(payload);
    }
    slot_of_[i] = static_cast<std::int32_t>(slot);
    state_[i] = kInFlight;
  }

  void mark_delivered(MsgId id) noexcept {
    state_[static_cast<std::size_t>(id)] = kBuffered;
  }

  const Knowledge& payload(MsgId id) const noexcept {
    return slots_[static_cast<std::size_t>(
        slot_of_[static_cast<std::size_t>(id)])];
  }

  void release(MsgId id) noexcept {
    const auto i = static_cast<std::size_t>(id);
    free_.push_back(static_cast<std::uint32_t>(slot_of_[i]));
    slot_of_[i] = -1;
    state_[i] = kNone;
  }

 private:
  std::vector<std::uint8_t> state_;    // MsgId -> lifecycle state
  std::vector<std::int32_t> slot_of_;  // MsgId -> slot (-1 when kNone)
  std::vector<Knowledge> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace

// Same calendar-queue lane-run structure as MpmSimulator::run — see the
// equivalence note there; the golden corpus and sim_core_equiv_test pin
// bit-identical traces.

P2pSimulator::P2pSimulator(const ProblemSpec& spec,
                           const TimingConstraints& constraints,
                           const Topology& topology,
                           const P2pAlgorithmFactory& factory,
                           StepScheduler& scheduler, DelayStrategy& delays,
                           FaultInjector* faults, obs::Observer* observer)
    : spec_(spec),
      constraints_(constraints),
      topology_(topology),
      factory_(factory),
      scheduler_(scheduler),
      delays_(delays),
      faults_(faults),
      observer_(observer) {}

P2pRunResult P2pSimulator::run(const RunLimits& limits) {
  const std::int32_t n = spec_.n;
  obs::Observer* const o = obs::resolve(observer_);
  obs::Profiler* const prof = o ? o->profiler : nullptr;
  obs::Span run_span(o ? o->trace : nullptr, "p2p.run", "sim",
                     o && o->trace
                         ? obs::args_object(
                               {obs::arg_int("n", n),
                                obs::arg_int("s", spec_.s)})
                         : std::string());
  if (o && o->runs) o->runs->inc();
  P2pRunResult result{TimedComputation(Substrate::kMessagePassing,
                                       std::max(n, 0), std::max(n, 0)),
                      false,
                      false,
                      0,
                      0,
                      topology_.num_nodes() == n ? topology_.diameter() : 0,
                      std::nullopt,
                      {}};
  if (n <= 0 || topology_.num_nodes() != n || !topology_.connected()) {
    SimError err;
    err.code = SimErrorCode::kInvalidSpec;
    err.detail = "topology must have n=" + std::to_string(n) +
                 " connected nodes (has " +
                 std::to_string(topology_.num_nodes()) + ")";
    result.error = std::move(err);
    obs::observe_error(o, *result.error);
    return result;
  }
  TimedComputation& trace = result.trace;

  std::vector<std::unique_ptr<P2pAlgorithm>> algs;
  algs.reserve(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p)
    algs.push_back(factory_.create(p, spec_, constraints_));

  // Accumulated gossip view per process, and in-flight message payloads.
  std::vector<Knowledge> view(static_cast<std::size_t>(n));
  PayloadArena payloads;
  // Delivered-but-not-received payloads per process.
  std::vector<std::vector<MsgId>> pending(static_cast<std::size_t>(n));

  CalendarQueue queue;
  obs::SampledPhaseTimer pop_timer(prof, obs::ProfilePhase::kEventQueuePop);
  obs::SampledPhaseTimer deliver_timer(prof, obs::ProfilePhase::kDeliver);
  obs::SampledPhaseTimer step_timer(prof, obs::ProfilePhase::kProcessStep);
  obs::SampledPhaseTimer sched_timer(prof, obs::ProfilePhase::kSchedule);

  std::vector<std::int64_t> step_count(static_cast<std::size_t>(n), 0);
  std::int32_t non_idle = n;

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
      err.step_index = static_cast<std::int64_t>(trace.steps().size());
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
      return result;
    }

  Time last_event_time(0);
  std::int64_t stagnant_events = 0;
  bool stop = false;
  CalendarQueue::Popped ev;

  auto watchdogs = [&]() -> bool {
    if (o && o->event_queue_depth)
      o->event_queue_depth->set(static_cast<std::int64_t>(queue.size()) + 1);
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
      err.step_index = static_cast<std::int64_t>(trace.steps().size());
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
        err.step_index = static_cast<std::int64_t>(trace.steps().size());
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
        if (payloads.state(ev.message) != PayloadArena::kInFlight) {
          SimError err;
          err.code = SimErrorCode::kUnknownMessage;
          err.detail = "deliver of message not in transit";
          err.message = ev.message;
          err.step_index = static_cast<std::int64_t>(trace.steps().size());
          err.time = ev.time;
          result.error = std::move(err);
          stop = true;
          break;
        }
        StepRecord st;
        st.kind = StepKind::kDeliver;
        st.process = kNetworkProcess;
        st.time = ev.time;
        st.delivered = ev.message;
        const std::size_t index = trace.append(st);
        MessageRecord& rec =
            trace.mutable_messages()[static_cast<std::size_t>(ev.message)];
        rec.deliver_step = index;
        pending[static_cast<std::size_t>(rec.recipient)].push_back(
            ev.message);
        if (o && o->messages_delivered) {
          o->messages_delivered->inc();
          o->pending_depth->set(static_cast<std::int64_t>(
              pending[static_cast<std::size_t>(rec.recipient)].size()));
        }
        payloads.mark_delivered(ev.message);
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

      // Crash-stop: the process halts; its knowledge stops spreading.
      if (faults_ && faults_->crash_now(p, step_count[pi], ev.time)) {
        obs::observe_fault(o, "crash", p, ev.time);
        result.crashed.push_back(p);
        --non_idle;
        continue;
      }

      // Receive: merge all delivered payloads. The step is appended after
      // the algorithm runs (its idle flag is part of the record), so the
      // index is the prospective one.
      const std::size_t step_index = trace.steps().size();
      for (const MsgId id : pending[pi]) {
        view[pi].merge(payloads.payload(id));
        payloads.release(id);
        trace.mutable_messages()[static_cast<std::size_t>(id)].receive_step =
            step_index;
      }
      pending[pi].clear();

      P2pAlgorithm& alg = *algs[pi];
      alg.on_step(view[pi]);
      const PortInfo own = alg.advertised();
      view[pi].record(p, own);
      const bool idle = alg.is_idle();

      StepRecord st;
      st.kind = StepKind::kCompute;
      st.process = p;
      st.time = ev.time;
      st.port = p;  // every step of a port process involves its buf
      st.idle_after = idle;
      trace.append(st);

      // Gossip the full view to every neighbour.
      for (const ProcessId q : topology_.neighbors(p)) {
        MessageRecord rec;
        rec.sender = p;
        rec.recipient = q;
        rec.send_step = step_index;
        rec.session = own.session;
        rec.steps = own.steps;
        rec.done = own.done;
        const MsgId id = trace.append_message(rec);
        ++result.messages_sent;
        if (o && o->messages_sent) o->messages_sent->inc();

        const MessageAction act =
            faults_ ? faults_->on_send(id, p, q, ev.time) : MessageAction{};
        if (act.drop) {  // lost: sent but never delivered
          if (o && o->messages_dropped) o->messages_dropped->inc();
          obs::observe_fault(o, "drop", p, ev.time);
          continue;
        }
        if (act.extra_delay.is_positive())
          obs::observe_fault(o, "delay", p, ev.time);

        const Duration delay =
            delays_.delay(p, q, ev.time, id) + act.extra_delay;
        payloads.send(id, view[pi]);
        queue.push_deliver(ev.time + delay, q, id);

        if (act.duplicate) {
          obs::observe_fault(o, "duplicate", p, ev.time);
          MessageRecord dup = rec;
          const MsgId dup_id = trace.append_message(dup);
          payloads.send(dup_id, view[pi]);
          queue.push_deliver(ev.time + delay + act.extra_delay, q, dup_id);
          ++result.messages_sent;
          if (o && o->messages_sent) o->messages_sent->inc();
        }
      }

      ++result.compute_steps;
      if (o && o->steps) o->steps->inc();
      ++step_count[pi];
      if (idle) {
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
         obs::arg_int("diameter", result.diameter),
         obs::arg_int("completed", result.completed ? 1 : 0)}));
  return result;
}

}  // namespace sesp
