#pragma once

// Machine checker for the paper's admissibility predicate (Section 2.2):
// every simulator run and every adversary-constructed computation in this
// library is validated against it, so "admissible timed computation" is a
// checked property, not an assumption.

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "model/timed_computation.hpp"
#include "timing/constraints.hpp"

namespace sesp {

// Exact location of the first admissibility violation: the trace step at
// which the computation leaves the admissible space, the responsible
// process, the model time, and (for delay violations) the message. This is
// the detection half of the fault-tolerance contract: an injected timing
// violation or duplicated delivery is localized to the step, not just
// narrated.
struct ViolationSite {
  std::size_t step_index = 0;
  ProcessId process = kNetworkProcess;
  Time time;
  MsgId message = kNoMsg;
};

struct AdmissibilityReport {
  bool admissible = true;
  // Human-readable description of the first violation found.
  std::string violation;
  // Machine-readable location of that violation, when it maps to a step
  // (gap and delay violations do; invalid constraints do not).
  std::optional<ViolationSite> site;

  explicit operator bool() const noexcept { return admissible; }
};

// Per-event admissibility checks (docs/performance.md "Verdict-only
// runs"): time order, idle states absorbing, and the per-model step-gap and
// message-delay bounds, each proved as its event arrives. This is the one
// implementation of those rules. The simulators feed it live in
// verdict-only runs (through session/VerdictMonitor); feed_trace() drives
// it over a recorded trace for verify() and for check_admissible's fast
// path. proven() is true only when every check held; "not proven" does NOT
// mean inadmissible: callers fall back to check_admissible, whose error
// selection and wording are the contract, so reports stay byte-identical.
// Constraint validity is not part of the proof (callers check
// c.validate() themselves, as check_admissible does first). The monitor
// keeps a reference to `c`, which must outlive it.
class AdmissibilityMonitor {
 public:
  AdmissibilityMonitor(Substrate substrate, std::int32_t num_processes,
                       const TimingConstraints& c);

  // A compute step of p at time t. Returns the step gap (t minus p's
  // previous compute time, time 0 being the virtual predecessor) for fused
  // callers tracking their own gap measure (the verdict's gamma); nullptr
  // for an out-of-range process, which also fails the proof. The pointer
  // is valid until the next call. The gap bookkeeping continues after a
  // failed check, so the gap stays exact for the caller either way.
  const Duration* compute(ProcessId p, const Time& t, bool idle_after) {
    if (t < prev_time_) ok_ = false;
    prev_time_ = t;
    if (p < 0 || p >= num_processes_) {
      ok_ = false;
      return nullptr;
    }
    const auto pi = static_cast<std::size_t>(p);
    if (idle_[pi] && !idle_after) ok_ = false;
    if (idle_after) idle_[pi] = 1;

    gap_ = t - last_[pi];
    last_[pi] = t;
    if (!no_gap_bounds_) {
      switch (c_.model) {
        case TimingModel::kSynchronous:
          if (gap_ != c_.c2) ok_ = false;
          break;
        case TimingModel::kPeriodic:
          // Too few periods already failed the proof in the constructor;
          // the gap bookkeeping above still runs, so guard the lookup.
          if (pi >= c_.periods.size() || gap_ != c_.periods[pi]) ok_ = false;
          break;
        case TimingModel::kSemiSynchronous:
          if (gap_ < c_.c1 || c_.c2 < gap_) ok_ = false;
          break;
        case TimingModel::kSporadic:
          if (gap_ < c_.c1) ok_ = false;
          break;
        case TimingModel::kAsynchronous:
          if (!gap_.is_positive() || c_.c2 < gap_) ok_ = false;
          break;
      }
    }
    return &gap_;
  }

  // A delivery step at time t of a message sent at `sent`.
  void deliver(const Time& t, const Time& sent) {
    if (t < prev_time_) ok_ = false;
    prev_time_ = t;
    const Duration delay = t - sent;
    if (delay_exact_ ? delay != delay_hi_
                     : (delay < delay_lo_ || delay_hi_ < delay))
      ok_ = false;
  }

  // Fails the proof from outside: a check the caller owns (a recorded
  // trace's message plumbing) did not hold.
  void reject() noexcept { ok_ = false; }

  bool proven() const noexcept { return ok_; }
  const TimingConstraints& constraints() const noexcept { return c_; }

 private:
  const TimingConstraints& c_;
  std::int32_t num_processes_;
  bool no_gap_bounds_ = false;
  bool ok_ = true;
  Time prev_time_;
  // Byte flags, not vector<bool>: one predicted load/store per step instead
  // of a read-modify-write bit mask in the hottest loop of the verifier.
  std::vector<char> idle_;
  std::vector<Time> last_;
  Duration gap_;  // gap of the last compute step; see compute()
  bool delay_exact_ = false;
  Duration delay_lo_;
  Duration delay_hi_;
};

// Feeds a recorded trace, step by step, to `monitor` (an
// AdmissibilityMonitor or session/VerdictMonitor) and proves the message
// plumbing the simulators guarantee by construction in the same pass, in a
// hot sliding window instead of a cold pass over the message log:
//
//  * trace messages are appended in send order, so a cursor consumes the
//    contiguous run of messages whose send_step is the current index
//    (tallying how many claim to be delivered/received);
//  * a delivery step at index i "vouches" for its message m exactly when
//    m.deliver_step == i (which, with m already consumed, also proves
//    sent-before-delivered); the send time needed for the delay bound sits
//    a bounded-delay window behind the cursor, still in cache;
//  * a vouched delivery queues m on its recipient, and the recipient's
//    next compute step vouches for m's receive_step the same way
//    (mirroring how the simulators assign receive steps).
//
// At the end the vouch counts must equal the tallies and the cursor must
// have consumed the log: a message the per-message checks of
// check_admissible would reject is never vouched, so any mismatch rejects
// the proof and the caller's precise fallback decides. Fed a bare
// AdmissibilityMonitor (check_admissible's fast path, which wants only the
// proof) the feed ends at the first failed check; a VerdictMonitor sees
// every step, since its other measures need them all.
//
// flatten: the monitor's compute() runs once per trace step and is worth
// inlining here, but VerdictMonitor's is big enough that the inliner
// passes on it by default.
template <typename Monitor>
[[gnu::flatten]] void feed_trace(const TimedComputation& tc,
                                 Monitor& monitor) {
  constexpr bool kProofOnly = std::is_same_v<Monitor, AdmissibilityMonitor>;
  const auto& steps = tc.steps();
  const auto& msgs = tc.messages();
  const std::int32_t n = tc.num_processes();
  std::vector<std::vector<MsgId>> pending(
      msgs.empty() || n <= 0 ? 0 : static_cast<std::size_t>(n));
  std::size_t next_send = 0;
  std::int64_t delivered = 0, received = 0;
  std::int64_t vouched_deliver = 0, vouched_receive = 0;
  bool plumbing = true;
  const auto unvouched = [&] {
    plumbing = false;
    monitor.reject();
  };

  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepRecord& st = steps[i];
    if (plumbing) {
      while (next_send < msgs.size() && msgs[next_send].send_step == i) {
        delivered += msgs[next_send].delivered() ? 1 : 0;
        received += msgs[next_send].received() ? 1 : 0;
        ++next_send;
      }
    }
    if (st.kind == StepKind::kDeliver) {
      const MsgId id = st.delivered;
      if (!plumbing || id < 0 || static_cast<std::size_t>(id) >= next_send ||
          msgs[static_cast<std::size_t>(id)].deliver_step != i) {
        // A stray delivery no message points back to stays unproven.
        if (plumbing) unvouched();
      } else {
        const MessageRecord& m = msgs[static_cast<std::size_t>(id)];
        ++vouched_deliver;
        monitor.deliver(st.time, steps[m.send_step].time);
        if (m.recipient >= 0 && m.recipient < n)
          pending[static_cast<std::size_t>(m.recipient)].push_back(id);
      }
    } else {
      if (plumbing && !pending.empty() && st.process >= 0 &&
          st.process < n) {
        auto& pend = pending[static_cast<std::size_t>(st.process)];
        for (const MsgId id : pend)
          vouched_receive +=
              msgs[static_cast<std::size_t>(id)].receive_step == i ? 1 : 0;
        pend.clear();
      }
      if constexpr (kProofOnly)
        monitor.compute(st.process, st.time, st.idle_after);
      else
        monitor.compute(st.process, st.port, st.time, st.idle_after);
    }
    if constexpr (kProofOnly)
      if (!monitor.proven()) return;
  }
  if (plumbing && (next_send != msgs.size() || vouched_deliver != delivered ||
                   vouched_receive != received))
    unvouched();
}

// Checks both structural validity (TimedComputation::structural_error) and
// the timing-model constraint:
//  * per-process consecutive compute-step gaps (with time 0 as the virtual
//    predecessor of each process's first step);
//  * message delays (MPM traces only).
//
// For finite traces the "infinitely many steps / eventually delivered"
// liveness clauses are interpreted over the active prefix: messages sent
// before all port processes idle need not be delivered within the trace
// (the trace is a prefix of an infinite admissible computation), but any
// recorded delivery must respect the delay bounds.
AdmissibilityReport check_admissible(const TimedComputation& tc,
                                     const TimingConstraints& constraints);

}  // namespace sesp
