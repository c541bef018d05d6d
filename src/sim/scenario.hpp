#pragma once

// The scenario vocabulary sesp_cli and sesp_serve share: one (substrate,
// timing model, adversary, instance, constants, seed) tuple, the timing
// constraints and Table-1 algorithm it names, and the three ways either
// tool runs it on the MPM and SMM substrates — one run under the lockstep
// or random adversary, the model's worst-case family, and the crash x
// fault-rate degradation grid. Served reports are byte-identical to the
// CLI's because both build them here.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "faults/fault_injector.hpp"
#include "faults/sim_error.hpp"
#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "mpm/algorithm.hpp"
#include "obs/observer.hpp"
#include "session/verdict_monitor.hpp"
#include "sim/experiment.hpp"
#include "smm/algorithm.hpp"
#include "timing/constraints.hpp"

namespace sesp {

struct Scenario {
  std::string substrate = "mpm";    // mpm | smm (sesp_cli: also p2p)
  std::string model = "semisync";   // sync|periodic|semisync|sporadic|async
  std::string adversary = "worst";  // worst | lockstep | random
  ProblemSpec spec{3, 3, 2};
  Ratio c1 = 1, c2 = 2, d1 = 0, d2 = 4;
  std::uint64_t seed = 1992;

  bool shared_memory() const { return substrate == "smm"; }
  // The processes a schedule spans: n, or on shared memory the n ports
  // plus the tree's relay processes.
  std::int32_t processes() const;
};

// The model's constraints over the scenario's constants; `total_processes`
// sizes the periodic period vector, whose periods spread evenly from c1 to
// c2 over the processes.
TimingConstraints build_constraints(const Scenario& s,
                                    std::int32_t total_processes);

// Table 1's algorithm for each model. No sporadic SMM algorithm exists
// (Table 1's sporadic row is MP-only), so SMM falls back to the async one.
std::unique_ptr<MpmAlgorithmFactory> make_mpm_factory(const std::string& model);
std::unique_ptr<SmmAlgorithmFactory> make_smm_factory(const std::string& model);

// Name of the scenario's algorithm on its substrate (MPM or SMM).
std::string algorithm_name(const Scenario& s);

// The adversary of a single run: the periodic model's one schedule, else
// lockstep at the slowest step period (c1 in the sporadic MPM model, c2
// otherwise) or uniform random gaps in [c1, c2] (c2/8 standing in for
// c1 <= 0; MPM sporadic: [c1, 8*c1]). Off shared memory, a fixed d2 delay,
// or uniform random delays in [d1, d2] under the random adversary.
Adversary single_run_adversary(const Scenario& s,
                               const TimingConstraints& constraints);

// One recorded, verified run under single_run_adversary().
struct SingleRun {
  TimedComputation trace;
  std::optional<SimError> error;
  Verdict verdict;
};
SingleRun run_single(const Scenario& s, FaultInjector* faults = nullptr,
                     obs::Observer* observer = nullptr);

// The model's worst-case family with 4 random members.
WorstCase run_worst_case(const Scenario& s);

// The {0, 1, 2} crashes x {0, 5, 20}% fault grid; runs stop at 150k
// compute steps so crash-induced livelocks cut over fast.
DegradationReport run_degradation(const Scenario& s);

// The grid table plus its "solved/degraded/diagnosed: a/b/c" line.
std::string degradation_text(const DegradationReport& report);

}  // namespace sesp
