#pragma once

// Online verdict monitor (docs/performance.md "Verdict-only runs"): the
// whole Verdict of one timed computation — session count, port idling and
// termination, rounds over the active prefix, γ, and the per-event
// admissibility checks — computed one event at a time, as the clock
// advances. A simulator running verdict-only feeds it live and records no
// trace; verify() drives the same monitor over a recorded trace
// (timing/feed_trace), so every counting and checking rule has exactly one
// implementation.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "session/round_counter.hpp"
#include "timing/admissibility.hpp"

namespace sesp {

// End-to-end verdict for one timed computation against the (s, n)-session
// problem (Section 2.3): admissibility under the timing model, session
// count, termination, and the running-time measures (real time, rounds, γ).
struct Verdict {
  bool admissible = false;
  std::string admissibility_violation;
  // Exact first violating step (process, index, time, message) when the
  // inadmissibility maps to a step — the detection half of the fault model.
  std::optional<ViolationSite> violation_site;

  std::int64_t sessions = 0;
  bool all_ports_idle = false;
  // sessions >= s and every port process idles.
  bool solves = false;

  // Real-time measure: time of the last port process's idling step.
  std::optional<Time> termination_time;
  // Round measure over the active prefix (asynchronous / sporadic models).
  RoundDecomposition rounds;
  // Largest observed step gap before termination (the paper's γ).
  std::optional<Duration> gamma;
};

// What a simulator run keeps: the full timed computation (the default,
// which replay, conformance, the retimers and trace dumps need), or only
// the online verdict.
enum class Recording : std::uint8_t { kTrace, kVerdictOnly };

// The constraints are held by reference and must outlive the monitor.
class VerdictMonitor {
 public:
  VerdictMonitor(Substrate substrate, std::int32_t num_processes,
                 std::int32_t num_ports, const TimingConstraints& constraints);

  // A compute step of p at time t; `port` is the port it touches (kNoPort
  // if none), `idle_after` whether p is idle after it.
  void compute(ProcessId p, PortIndex port, const Time& t, bool idle_after) {
    const Duration* gap = adm_.compute(p, t, idle_after);

    // Greedy session scan (session_counter.hpp) over every step.
    const auto port_slot = static_cast<std::size_t>(port);
    if (port != kNoPort && port_slot < session_seen_.size() &&
        !session_seen_[port_slot]) {
      session_seen_[port_slot] = 1;
      if (--session_missing_ == 0) {
        ++sessions_;
        session_seen_.assign(session_seen_.size(), 0);
        session_missing_ = num_ports_;
      }
    }
    if (!active_) return;

    // γ and rounds over the active prefix; gap is null exactly for an
    // out-of-range process, which neither measure counts.
    if (gap) {
      const auto pi = static_cast<std::size_t>(p);
      if (!gamma_ || *gamma_ < *gap) gamma_ = *gap;
      // A round is complete when every process is seen-or-idle; `covered`
      // counts processes in that union so the test is one compare (a
      // process enters the union at most once per round, and resetting the
      // seen flags shrinks it back to the idle set).
      if (!round_seen_[pi]) {
        round_seen_[pi] = 1;
        ++distinct_;
        if (!round_idle_[pi]) ++covered_;
      }
      if (idle_after && !round_idle_[pi]) {
        round_idle_[pi] = 1;
        ++idle_count_;
        if (!round_seen_[pi]) ++covered_;
      }
      if (covered_ == round_seen_.size()) {
        ++full_rounds_;
        round_seen_.assign(round_seen_.size(), 0);
        distinct_ = 0;
        covered_ = idle_count_;
      }
    }

    // The prefix ends ON the step where the last port idles, so this runs
    // after the round/γ updates for that step.
    if (idle_after && p >= 0 && p < num_ports_ &&
        !port_idle_[static_cast<std::size_t>(p)]) {
      port_idle_[static_cast<std::size_t>(p)] = 1;
      if (--ports_remaining_ == 0) {
        termination_ = t;
        active_ = false;
      }
    }
  }

  // A delivery step at time t of a message sent at `sent` (MPM).
  void deliver(const Time& t, const Time& sent) { adm_.deliver(t, sent); }

  // Fails the admissibility proof from outside (see AdmissibilityMonitor).
  void reject() noexcept { adm_.reject(); }

  // Every measure of the verdict. `admissible` is true exactly when the
  // monitor settles admissibility alone: every check proved and the
  // constraints valid. Otherwise it is false with no violation named —
  // only check_admissible over a recorded trace can name it (its wording
  // and ViolationSite are the contract).
  Verdict verdict(std::int64_t s) const;

 private:
  AdmissibilityMonitor adm_;
  std::int32_t num_ports_;

  // Sessions (count_sessions). Byte flags throughout, not vector<bool>:
  // this runs once per step and a predicted byte load beats a bit mask.
  std::vector<char> session_seen_;
  std::int32_t session_missing_;
  std::int64_t sessions_ = 0;

  // Port idling: all_ports_idle / termination time / the active prefix.
  std::vector<char> port_idle_;
  std::int32_t ports_remaining_;
  bool active_ = true;
  std::optional<Time> termination_;

  // Rounds over the active prefix (count_rounds).
  std::vector<char> round_idle_;
  std::vector<char> round_seen_;
  std::size_t distinct_ = 0;
  std::size_t covered_ = 0;
  std::size_t idle_count_ = 0;
  std::int64_t full_rounds_ = 0;

  std::optional<Duration> gamma_;
};

}  // namespace sesp
