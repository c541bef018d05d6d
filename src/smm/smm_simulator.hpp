#pragma once

// Event-driven executor of the shared-memory model. Builds the variable
// layout (one port variable and one scratch variable per port process, plus
// the Section-3 broadcast tree), runs port algorithms and fixed-gossip
// relays under the adversary's step schedule, and records the full timed
// computation with per-step variable digests (for the reordering machinery
// of Theorem 5.1) — or, verdict-only, feeds the online verdict monitor and
// records nothing.
//
// An optional FaultInjector adds crash-stops, timing violations and shared
// variable write corruption (lost updates) at the corresponding hook points;
// watchdogs (step/time budget, no-progress) bound every run, and ill-formed
// situations surface as a structured SimError, never an abort.
//
// An optional obs::Observer (same nullable pattern) instruments the run:
// step and shared-variable read/write counters, queue-depth gauges,
// watchdog-margin histograms, a run span, and a trace event per injected
// fault and per SimError.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/schedulers.hpp"
#include "faults/fault_injector.hpp"
#include "faults/sim_error.hpp"
#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "obs/observer.hpp"
#include "session/verdict_monitor.hpp"
#include "smm/algorithm.hpp"
#include "smm/shared_memory.hpp"
#include "smm/tree_network.hpp"
#include "timing/constraints.hpp"

namespace sesp {

struct SmmRunResult {
  // The timed computation; empty for a Recording::kVerdictOnly run.
  TimedComputation trace;
  bool completed = false;  // every port process idled or crash-stopped
  bool hit_limit = false;
  std::int64_t compute_steps = 0;
  // Layout facts, so callers can relate measurements to the tree constants.
  std::int32_t num_relays = 0;
  std::int32_t tree_depth = 0;
  std::int64_t tree_latency_steps = 0;
  // Structured diagnostics (see MpmRunResult::error).
  std::optional<SimError> error;
  // Processes (ports or relays) crash-stopped by fault injection.
  std::vector<ProcessId> crashed;
  // Recording::kVerdictOnly runs: the online verdict (VerdictMonitor::
  // verdict), from every step the trace would have recorded. admissible is
  // false, with no violation named, whenever the monitor could not prove
  // admissibility alone.
  std::optional<Verdict> verdict;
};

// Number of processes (ports + relays) the layout for (n, b) uses; step
// schedulers and periodic period vectors must cover all of them.
std::int32_t smm_total_processes(std::int32_t n, std::int32_t b);

class SmmSimulator {
 public:
  SmmSimulator(const ProblemSpec& spec, const TimingConstraints& constraints,
               const SmmAlgorithmFactory& factory, StepScheduler& scheduler,
               FaultInjector* faults = nullptr,
               obs::Observer* observer = nullptr);

  // Recording::kVerdictOnly builds no trace and skips the per-step value
  // digests (which only the trace carries): every step goes to an online
  // VerdictMonitor whose verdict the result carries. Every other observable
  // is identical to the default recording run (see MpmSimulator::run).
  SmmRunResult run(const RunLimits& limits = RunLimits{},
                   Recording recording = Recording::kTrace);

 private:
  template <Recording kMode>
  SmmRunResult run_as(const RunLimits& limits);

  ProblemSpec spec_;
  TimingConstraints constraints_;
  const SmmAlgorithmFactory& factory_;
  StepScheduler& scheduler_;
  FaultInjector* faults_;
  obs::Observer* observer_;
};

}  // namespace sesp
