#pragma once

// Event-driven executor of the message-passing model. The adversary (a
// StepScheduler and a DelayStrategy) fixes the timed schedule; the simulator
// runs the algorithm under it and records the full timed computation for the
// counters / checkers — or, verdict-only, feeds them online and records
// nothing.
//
// Tie-breaking at equal times is adversarial for upper bounds: compute steps
// are ordered before delivery steps carrying the same timestamp, so a
// message delivered "at" a step time is only seen at the process's *next*
// step — the worst admissible interleaving.
//
// An optional FaultInjector turns the executor into a chaos harness:
// crash-stops, message drop/duplication/extra delay and timing violations
// are applied at the corresponding hook points. Ill-formed situations —
// injected or not — end the run with a structured SimError in the result
// instead of terminating the process, and watchdogs (step budget, time
// budget, no-progress detection) bound every run.
//
// An optional obs::Observer (same nullable pattern) instruments the run:
// step/message counters, queue-depth gauges, watchdog-margin histograms, a
// run span, and a trace event per injected fault and per SimError. With no
// observer attached (explicit or process default) every hook is a single
// null check.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/schedulers.hpp"
#include "faults/fault_injector.hpp"
#include "faults/sim_error.hpp"
#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "mpm/algorithm.hpp"
#include "obs/observer.hpp"
#include "session/verdict_monitor.hpp"
#include "timing/constraints.hpp"

namespace sesp {

struct MpmRunResult {
  // The timed computation; empty (no steps, no messages) for a
  // Recording::kVerdictOnly run.
  TimedComputation trace;
  bool completed = false;     // every port process idled or crash-stopped
  bool hit_limit = false;     // stopped by RunLimits instead
  std::int64_t compute_steps = 0;
  std::int64_t messages_sent = 0;
  // Structured diagnostics: set when the run left the well-formed space
  // (limit/watchdog trip, network anomaly, bad spec). Never aborts.
  std::optional<SimError> error;
  // Processes crash-stopped by fault injection, in crash order.
  std::vector<ProcessId> crashed;
  // Recording::kVerdictOnly runs: the online verdict (VerdictMonitor::
  // verdict), from every step the trace would have recorded. admissible is
  // false, with no violation named, whenever the monitor could not prove
  // admissibility alone.
  std::optional<Verdict> verdict;
};

class MpmSimulator {
 public:
  // Every regular process is a port process in the MPM (its buf is its
  // port), so the system has spec.n regular processes plus the network.
  // `faults` (optional, unowned) injects the chaos plan into the run;
  // `observer` (optional, unowned) instruments it — when null, the process
  // default observer (if any) is used.
  MpmSimulator(const ProblemSpec& spec, const TimingConstraints& constraints,
               const MpmAlgorithmFactory& factory, StepScheduler& scheduler,
               DelayStrategy& delays, FaultInjector* faults = nullptr,
               obs::Observer* observer = nullptr);

  // Recording::kVerdictOnly builds no trace: every step goes to an online
  // VerdictMonitor whose verdict the result carries, and in-flight messages
  // live in a recycled slot pool rather than the message log. Every other
  // observable — the run flags and counts, the SimError, fault-hook and
  // delay-strategy calls with their sequential message ids, the observer's
  // instruments — is identical to the default recording run.
  MpmRunResult run(const RunLimits& limits = RunLimits{},
                   Recording recording = Recording::kTrace);

 private:
  template <Recording kMode>
  MpmRunResult run_as(const RunLimits& limits);

  ProblemSpec spec_;
  TimingConstraints constraints_;
  const MpmAlgorithmFactory& factory_;
  StepScheduler& scheduler_;
  DelayStrategy& delays_;
  FaultInjector* faults_;
  obs::Observer* observer_;
};

}  // namespace sesp
