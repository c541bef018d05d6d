#include "conformance/harness.hpp"

#include <iomanip>
#include <sstream>

#include "conformance/witness.hpp"
#include "exec/jobs.hpp"
#include "exec/thread_pool.hpp"
#include "model/trace_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recovery/payload.hpp"
#include "recovery/supervisor.hpp"

namespace sesp::conformance {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) noexcept {
  for (const char ch : s) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= kFnvPrime;
  }
  return h;
}

std::string substrate_name(Substrate s) {
  return s == Substrate::kSharedMemory ? "smm" : "mpm";
}

// Journal codec for one case verdict (docs/robustness.md). The descriptor
// is NOT stored: generate_case() is deterministic in (seed, cell, index),
// so a resumed run regenerates descriptors on demand instead of paying a
// payload per case for them.
std::string encode_case_result(const CaseResult& r) {
  recovery::PayloadWriter w;
  w.put_bool("ran", r.ran);
  w.put_int("sessions", r.sessions);
  w.put_int("steps", r.steps);
  w.put_int("nfail", static_cast<std::int64_t>(r.failures.size()));
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    const std::string prefix = "f" + std::to_string(i);
    w.put(prefix + ".oracle", r.failures[i].oracle);
    w.put(prefix + ".detail", r.failures[i].detail);
  }
  return w.str();
}

CaseResult decode_case_result(const std::string& payload) {
  CaseResult r;
  if (const auto failure = recovery::decode_task_failure(payload)) {
    r.ran = false;
    r.failures.push_back(OracleFailure{"supervisor", failure->to_string()});
    return r;
  }
  const recovery::PayloadReader reader(payload);
  r.ran = reader.get_bool("ran", false);
  r.sessions = reader.get_int("sessions", 0);
  r.steps = reader.get_int("steps", 0);
  const std::int64_t nfail = reader.get_int("nfail", 0);
  for (std::int64_t i = 0; i < nfail; ++i) {
    const std::string prefix = "f" + std::to_string(i);
    r.failures.push_back(OracleFailure{reader.get(prefix + ".oracle"),
                                       reader.get(prefix + ".detail")});
  }
  return r;
}

}  // namespace

std::string ConformanceReport::summary() const {
  std::ostringstream os;
  os << "conformance: " << total_cases << " cases, " << total_failures
     << " failures, digest " << digest << '\n';
  for (const CellReport& cell : cells) {
    os << "  " << std::setw(16) << std::left << to_string(cell.model)
       << ' ' << substrate_name(cell.substrate) << "  cases " << std::setw(6)
       << cell.cases << " failures " << std::setw(3) << cell.failures
       << " sessions " << std::setw(8) << cell.sessions_total << " steps "
       << std::setw(9) << cell.steps_total << " digest " << std::hex
       << std::setw(16) << std::setfill('0') << cell.digest << std::dec
       << std::setfill(' ') << '\n';
  }
  for (const FailureRecord& f : failures) {
    os << "  FAIL [" << f.oracle << "] " << f.descriptor.to_string() << '\n'
       << "       " << f.detail << '\n';
    if (f.shrink) {
      os << "       shrunk to: " << f.shrink->minimized.to_string() << " ("
         << f.shrink->steps << " steps, " << f.shrink->attempts
         << " attempts)\n";
    }
  }
  return os.str();
}

ConformanceReport run_conformance(const ConformanceConfig& config,
                                  obs::Observer* observer) {
  obs::Observer* parent = obs::resolve(observer);
  std::optional<obs::Span> span;
  if (parent && parent->trace)
    span.emplace(parent->trace, "conformance.run", "conformance",
                 obs::args_object(
                     {obs::arg_int("cases_per_cell", config.cases_per_cell),
                      obs::arg_int("seed",
                                   static_cast<std::int64_t>(config.seed))}));

  ConformanceReport report;
  const std::size_t per_cell =
      static_cast<std::size_t>(config.cases_per_cell);
  const std::size_t num_cells =
      config.models.size() * config.substrates.size();
  const std::size_t total = num_cells * per_cell;

  std::vector<CaseResult> results(total);
  const auto descriptor_at = [&](std::size_t i) {
    const std::size_t cell = i / per_cell;
    const std::size_t index = i % per_cell;
    const TimingModel model = config.models[cell / config.substrates.size()];
    const Substrate substrate =
        config.substrates[cell % config.substrates.size()];
    CaseDescriptor c = generate_case(model, substrate,
                                     case_seed(config.seed, cell, index),
                                     config.limits);
    c.algorithm_override = config.algorithm_override;
    return c;
  };

  // Several reused layers (replay, retimers, verify) observe through the
  // process default observer, which is single-writer; detach it while
  // worker threads run and restore it for the serial phases. The
  // supervisor records its recovery.* counters and instants into `parent`,
  // from this thread. Results travel through the journal codec in both the
  // plain and the supervised path, so a checkpointed campaign resumes to a
  // byte-identical report.
  obs::Observer* saved = obs::set_default_observer(nullptr);
  recovery::supervised_sweep(
      "conformance_cases", total,
      [&](std::size_t i) {
        return encode_case_result(check_case(descriptor_at(i),
                                             config.oracles));
      },
      [&](std::size_t i, const std::string& payload) {
        results[i] = decode_case_result(payload);
      },
      parent, config.jobs);
  obs::set_default_observer(saved);

  // A drained interrupt leaves pending cases unchecked; the partial report
  // is never printed (the tools exit kExitInterrupted), so skip the
  // aggregation and the minimizer outright.
  if (recovery::run_interrupted()) return report;

  // Serial aggregation in case order — the digest and the recorded failure
  // list are independent of the job count by construction.
  report.cells.reserve(num_cells);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    CellReport cr;
    cr.model = config.models[cell / config.substrates.size()];
    cr.substrate = config.substrates[cell % config.substrates.size()];
    cr.digest = kFnvOffset;
    for (std::size_t index = 0; index < per_cell; ++index) {
      const std::size_t i = cell * per_cell + index;
      const CaseResult& r = results[i];
      ++cr.cases;
      cr.sessions_total += r.sessions;
      cr.steps_total += r.steps;
      cr.digest = fnv1a(cr.digest, r.digest_fragment());
      cr.digest = fnv1a(cr.digest, ",");
      if (!r.ok()) {
        ++cr.failures;
        ++report.total_failures;
        if (static_cast<std::int64_t>(report.failures.size()) <
            config.max_failures) {
          FailureRecord f;
          f.descriptor = descriptor_at(i);
          f.oracle = r.first_oracle();
          f.detail = r.failures.empty() ? "did not run: incomplete"
                                        : r.failures[0].detail;
          report.failures.push_back(std::move(f));
        }
      }
    }
    report.total_cases += cr.cases;
    report.cells.push_back(cr);
  }

  std::uint64_t combined = kFnvOffset;
  for (const CellReport& cr : report.cells) {
    std::ostringstream os;
    os << to_string(cr.model) << '/' << substrate_name(cr.substrate) << ':'
       << cr.cases << ':' << cr.failures << ':' << std::hex << cr.digest;
    combined = fnv1a(combined, os.str());
  }
  {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << combined;
    report.digest = os.str();
  }

  if (config.minimize) {
    for (FailureRecord& f : report.failures) {
      f.shrink = shrink_case(f.descriptor, config.oracles);
      const CaseDescriptor& best =
          f.shrink ? f.shrink->minimized : f.descriptor;
      GeneratedRun run = run_case(best);
      if (run.trace) {
        Witness w;
        w.descriptor = best;
        w.oracle = f.shrink ? f.shrink->oracle : f.oracle;
        w.trace_text = to_text(*run.trace);
        f.witness = write_witness(w);
      }
    }
  }

  if (parent && parent->metrics) {
    parent->metrics->counter("conformance.cases")
        .inc(report.total_cases);
    parent->metrics->counter("conformance.failures")
        .inc(report.total_failures);
  }
  return report;
}

}  // namespace sesp::conformance
