#include "session/verifier.hpp"

namespace sesp {

void observe_verdict(obs::Observer* o, const Verdict& v) {
  if (!o) return;
  if (o->verified_runs) o->verified_runs->inc();
  if (o->sessions && v.sessions > 0) o->sessions->inc(v.sessions);
  if (o->termination_time && v.termination_time)
    o->termination_time->observe(*v.termination_time);
}

Verdict verify(const TimedComputation& tc, const ProblemSpec& spec,
               const TimingConstraints& constraints,
               obs::Observer* observer) {
  obs::Observer* const o = obs::resolve(observer);
  obs::Profiler* const prof = o ? o->profiler : nullptr;
  obs::Span span(o ? o->trace : nullptr, "verify.run", "verify");
  VerdictMonitor monitor(tc.substrate(), tc.num_processes(), tc.num_ports(),
                         constraints);
  {
    // The counting half of a Verdict and the admissibility proof, fused
    // into one flat pass over the steps (docs/performance.md "Verifier hot
    // path"), so the admissible case — every grid-sweep trace — costs a
    // single scan.
    obs::ProfileScope ps(prof, obs::ProfilePhase::kSessionCount);
    feed_trace(tc, monitor);
  }

  Verdict v;
  {
    obs::ProfileScope ps(prof, obs::ProfilePhase::kAdmissibility);
    v = monitor.verdict(spec.s);
    // When the fused pass proved every check, the precise path would report
    // no violation, so its rescans are skipped.
    if (!v.admissible) {
      const AdmissibilityReport adm = check_admissible(tc, constraints);
      v.admissible = adm.admissible;
      v.admissibility_violation = adm.violation;
      v.violation_site = adm.site;
    }
  }
  observe_verdict(o, v);
  if (o && o->trace)
    span.set_args(obs::args_object(
        {obs::arg_int("sessions", v.sessions),
         obs::arg_int("admissible", v.admissible ? 1 : 0),
         obs::arg_int("solves", v.solves ? 1 : 0)}));
  return v;
}

}  // namespace sesp
