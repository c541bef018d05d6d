#pragma once

// Structured diagnostics for ill-formed executions. The paper's admissibility
// proofs quantify over well-formed computations only; once faults are
// injected (or a harness bug corrupts a schedule), the simulators must stop
// *reporting* instead of aborting. A SimError pinpoints where a run left the
// well-formed space: which step, which process, at what model time, and why.
// Every former hard-abort branch in the run loops and the MPM network now
// produces one of these instead.

#include <cstdint>
#include <optional>
#include <string>

#include "model/ids.hpp"
#include "util/ratio.hpp"

namespace sesp {

enum class SimErrorCode : std::uint8_t {
  kInvalidSpec,           // problem spec / topology rejected before stepping
  kUnknownMessage,        // delivery of a MsgId not in transit
  kBadRecipient,          // send addressed outside the process range
  kStepLimitExceeded,     // watchdog: compute-step budget exhausted
  kTimeLimitExceeded,     // watchdog: model-time budget exhausted
  kNoProgress,            // watchdog: event time pinned (zero-gap livelock)
  kNonMonotonicSchedule,  // scheduler returned a step time before the past
};

const char* to_string(SimErrorCode code);

// The watchdog budgets of every simulator (MPM, SMM, P2P). A run that
// exceeds one before all port processes idle stops, flags hit_limit and
// carries the matching SimError; they guard against broken
// non-terminating algorithms.
struct RunLimits {
  std::int64_t max_steps = 2'000'000;
  Time max_time = Time(1'000'000'000);
  // No-progress watchdog: maximum consecutive events at one model time
  // before the run is declared livelocked (zero-gap schedules).
  std::int64_t max_stagnant_events = 100'000;
};

struct SimError {
  SimErrorCode code = SimErrorCode::kInvalidSpec;
  std::string detail;  // human-readable cause

  // Location of the failure, where known. step_index is the number of trace
  // steps recorded when the error was raised (i.e. the index the next step
  // would have had); -1 when the run never started.
  std::int64_t step_index = -1;
  ProcessId process = kNetworkProcess;
  std::optional<Time> time;
  MsgId message = kNoMsg;

  std::string to_string() const;
};

}  // namespace sesp
