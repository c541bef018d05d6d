#include "session/verdict_monitor.hpp"

namespace sesp {

namespace {

std::size_t clamp_size(std::int32_t count) {
  return static_cast<std::size_t>(count > 0 ? count : 0);
}

}  // namespace

VerdictMonitor::VerdictMonitor(Substrate substrate,
                               std::int32_t num_processes,
                               std::int32_t num_ports,
                               const TimingConstraints& constraints)
    : adm_(substrate, num_processes, constraints),
      num_ports_(num_ports),
      session_seen_(clamp_size(num_ports), 0),
      session_missing_(num_ports),
      port_idle_(clamp_size(num_ports), 0),
      ports_remaining_(num_ports),
      round_idle_(clamp_size(num_processes), 0),
      round_seen_(clamp_size(num_processes), 0) {}

Verdict VerdictMonitor::verdict(std::int64_t s) const {
  Verdict v;
  v.admissible = adm_.proven() && !adm_.constraints().validate();
  v.sessions = sessions_;
  v.all_ports_idle = termination_.has_value();
  v.solves = v.sessions >= s && v.all_ports_idle;
  v.termination_time = termination_;
  v.rounds.full_rounds = full_rounds_;
  v.rounds.partial_tail = distinct_ > 0;
  v.gamma = gamma_;
  return v;
}

}  // namespace sesp
