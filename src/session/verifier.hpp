#pragma once

// End-to-end verdict for one recorded timed computation against the
// (s, n)-session problem (Section 2.3): admissibility under the timing
// model, session count, termination, and the running-time measures (real
// time, rounds, γ). The Verdict type and its online monitor live in
// session/verdict_monitor.hpp; verify() drives that monitor over the trace.

#include "model/ids.hpp"
#include "model/timed_computation.hpp"
#include "obs/observer.hpp"
#include "session/round_counter.hpp"
#include "session/session_counter.hpp"
#include "session/verdict_monitor.hpp"
#include "timing/admissibility.hpp"

namespace sesp {

// `observer` (optional, unowned) records a "verify.run" span plus session /
// verified-run counters and the termination-time histogram; when null the
// process default observer (if any) is used.
Verdict verify(const TimedComputation& tc, const ProblemSpec& spec,
               const TimingConstraints& constraints,
               obs::Observer* observer = nullptr);

// The verdict counters and histogram verify() records (verify.runs,
// verify.sessions, verify.termination_time), for verdicts reached without
// it — the online verdicts of verdict-only runs. Tolerates a null observer.
void observe_verdict(obs::Observer* observer, const Verdict& v);

}  // namespace sesp
