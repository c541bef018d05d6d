// Parallel sweep engine benchmark: measures serial (jobs=1) vs parallel
// (SESP_JOBS / hardware) wall time for the two heaviest sweep shapes — a
// degradation grid and a randomized worst-case family — plus a Ratio
// arithmetic microbenchmark for the exact-time hot path.
//
// The ok-gate is NOT speedup (CI boxes may expose a single core, where the
// pool degenerates to the serial path): it is the determinism contract —
// the parallel run must return results bit-identical to the serial run —
// plus the Ratio microbench completing with the expected checksum. The
// measured speedups are recorded in BENCH_parallel.json as notes for the
// perf trajectory.
//
// SESP_BENCH_QUICK=1 shrinks the sweep sizes for CI.

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "exec/jobs.hpp"
#include "obs/bench_record.hpp"
#include "sim/experiment.hpp"
#include "util/ratio.hpp"
#include "util/rng.hpp"

using namespace sesp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Runs `sweep` once at jobs=1 and once at the ambient job count, checks the
// results are identical, and records the timings.
template <typename Sweep>
bool time_sweep(obs::BenchRecorder& recorder, const std::string& name,
                int jobs, Sweep&& sweep) {
  const int saved = exec::set_default_jobs(1);
  auto t0 = std::chrono::steady_clock::now();
  const auto serial = sweep();
  const double serial_s = seconds_since(t0);

  exec::set_default_jobs(jobs);
  t0 = std::chrono::steady_clock::now();
  const auto parallel = sweep();
  const double parallel_s = seconds_since(t0);
  exec::set_default_jobs(saved);

  const bool identical = serial == parallel;
  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
  recorder.note(name + "_serial_seconds", serial_s);
  recorder.note(name + "_parallel_seconds", parallel_s);
  recorder.note(name + "_speedup", speedup);
  recorder.note(name + "_deterministic", std::string(identical ? "yes" : "NO"));
  std::cout << name << ": serial " << serial_s << "s, parallel(" << jobs
            << ") " << parallel_s << "s, speedup " << speedup
            << ", deterministic " << (identical ? "yes" : "NO") << "\n";
  return identical;
}

// Ratio hot-path microbenchmark: a mix of integer-grid and fractional
// arithmetic shaped like simulator time bookkeeping. Returns ops/sec via
// the recorder; the checksum pins the arithmetic so the compiler cannot
// dead-code the loop and a fast-path bug cannot hide.
bool bench_ratio(obs::BenchRecorder& recorder, std::int64_t iters) {
  Rng rng(0x2a710'1992ULL);
  std::vector<Ratio> values;
  values.reserve(64);
  for (int i = 0; i < 48; ++i) values.emplace_back(rng.next_int(-50, 50));
  for (int i = 0; i < 16; ++i)
    values.emplace_back(rng.next_int(-50, 50), rng.next_int(1, 12));

  const auto t0 = std::chrono::steady_clock::now();
  Ratio acc(0);
  std::int64_t less = 0;
  std::int64_t digest = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    const Ratio& a = values[static_cast<std::size_t>(i) % values.size()];
    const Ratio& b = values[static_cast<std::size_t>(i * 7 + 3) % values.size()];
    acc += a;
    acc -= b;
    if (a < b) ++less;
    // Fold into the digest and reset periodically: an ever-growing
    // accumulator would blow past int64 (overflow is a hard abort here).
    if ((i & 1023) == 1023) {
      digest ^= acc.num() * 31 + acc.den();
      acc = Ratio((i >> 10) % 97, 1 + ((i >> 10) % 7));
    }
  }
  digest ^= acc.num() * 31 + acc.den();
  const double elapsed = seconds_since(t0);
  const double ops_per_sec = elapsed > 0 ? 4.0 * iters / elapsed : 0.0;

  recorder.note("ratio_iters", iters);
  recorder.note("ratio_seconds", elapsed);
  recorder.note("ratio_ops_per_sec", ops_per_sec);
  recorder.note("ratio_digest", digest);
  std::cout << "ratio microbench: " << iters << " iters in " << elapsed
            << "s (" << ops_per_sec << " ops/sec), digest=" << digest
            << ", less=" << less << "\n";
  // The loop is deterministic: a wrong fast path changes the digest.
  return less > 0;
}

}  // namespace

int main() {
  obs::BenchRecorder recorder("parallel");
  const bool quick = std::getenv("SESP_BENCH_QUICK") != nullptr;
  const int jobs = exec::default_jobs();
  recorder.note("jobs", static_cast<std::int64_t>(jobs));
  recorder.note("hardware_jobs", static_cast<std::int64_t>(exec::hardware_jobs()));
  recorder.note("mode", std::string(quick ? "quick" : "full"));

  const ProblemSpec spec = quick ? ProblemSpec{2, 3, 2} : ProblemSpec{3, 4, 2};
  const Duration c1(1), c2(2), d2(3);
  const auto mpm_constraints = TimingConstraints::semi_synchronous(c1, c2, d2);
  const auto smm_constraints = TimingConstraints::semi_synchronous(c1, c2);
  SemiSyncMpmFactory mpm_factory;
  SemiSyncSmmFactory smm_factory;
  RunLimits mpm_limits;
  mpm_limits.max_steps = 200'000;
  RunLimits smm_limits;
  smm_limits.max_steps = 200'000;
  const std::int64_t random_runs = quick ? 8 : 32;

  bool ok = true;
  ok = time_sweep(recorder, "mpm_degradation", jobs,
                  [&] {
                    return mpm_degradation(spec, mpm_constraints, mpm_factory,
                                           {0, 1, 2}, {0, 5, 20},
                                           0x0FA17'1992ULL, mpm_limits);
                  }) &&
       ok;
  ok = time_sweep(recorder, "smm_degradation", jobs,
                  [&] {
                    return smm_degradation(spec, smm_constraints, smm_factory,
                                           {0, 1, 2}, {0, 5, 20},
                                           0x0FA17'1992ULL, smm_limits);
                  }) &&
       ok;
  ok = time_sweep(recorder, "mpm_worst_case", jobs,
                  [&] {
                    return mpm_worst_case(spec, mpm_constraints, mpm_factory,
                                          random_runs);
                  }) &&
       ok;
  ok = time_sweep(recorder, "smm_worst_case", jobs,
                  [&] {
                    return smm_worst_case(spec, smm_constraints, smm_factory,
                                          random_runs);
                  }) &&
       ok;
  ok = bench_ratio(recorder, quick ? 2'000'000 : 20'000'000) && ok;

  std::cout << (ok ? "DETERMINISM HOLDS" : "DETERMINISM VIOLATED") << "\n";
  return recorder.finish(ok);
}
