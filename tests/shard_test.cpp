// The sharded-execution contracts (docs/robustness.md "Sharded execution"):
//
//  1. Chunking: range boundaries are a pure function of the slot count, so
//     any number of workers — including a late or restarted one — agrees on
//     them.
//  2. Claim files: O_EXCL generation arbitration (claim, steal, renew,
//     complete), with torn claims counting as expired.
//  3. Merge: worker journals fold into one canonical slot-ordered journal —
//     non-failure payloads win, ties break to the lowest worker id, lease
//     events are omitted — and the merged bytes are a pure function of the
//     computed payloads.
//  4. Kill-and-steal determinism: every sweep family, executed by any
//     number of cooperating workers with any interleaving, any job count,
//     and a worker killed mid-range (torn journal + stale leases), yields a
//     report equal to the plain serial run and byte-identical merged
//     journals.
//
// Workers here are simulated in-process and run sequentially, one partial
// turn at a time (SESP_STOP_AFTER-style stops), which exercises the same
// lease/steal/gather code paths as real processes with full determinism;
// cli_test drives the real multi-process path through sesp_shard.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "adversary/exhaustive.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "conformance/harness.hpp"
#include "recovery/journal.hpp"
#include "recovery/payload.hpp"
#include "recovery/supervisor.hpp"
#include "shard/lease.hpp"
#include "shard/shard.hpp"
#include "sim/experiment.hpp"
#include "support/test_support.hpp"

namespace sesp {
namespace {

namespace fs = std::filesystem;
using test_support::JobsGuard;

constexpr char kTool[] = "shard_test";
constexpr std::uint64_t kDigest = 99;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- chunking ---------------------------------------------------------------

TEST(ShardChunkTest, BoundariesAreWorkerCountIndependent) {
  EXPECT_EQ(shard::shard_chunk(0), 1u);
  EXPECT_EQ(shard::shard_chunk(1), 1u);
  EXPECT_EQ(shard::shard_chunk(64), 1u);
  EXPECT_EQ(shard::shard_chunk(65), 2u);
  EXPECT_EQ(shard::shard_chunk(1000), 16u);
  // Never more than 64 ranges, never an empty one.
  for (const std::uint64_t count : {1u, 7u, 64u, 65u, 129u, 4096u}) {
    const std::uint64_t chunk = shard::shard_chunk(count);
    ASSERT_GE(chunk, 1u);
    EXPECT_LE((count + chunk - 1) / chunk, 64u) << "count " << count;
  }
}

// --- claim files ------------------------------------------------------------

TEST(ClaimFileTest, ClaimStealRenewCompleteRoundTrip) {
  const std::string dir = temp_dir("claims_unit");
  ASSERT_TRUE(fs::create_directories(dir));

  // Unclaimed range reads as gen 0.
  EXPECT_FALSE(shard::read_claim(dir, "stage a", 0).exists());

  // Generation 1 is claimed exactly once.
  std::string path;
  ASSERT_TRUE(shard::create_claim(dir, "stage a", 0, 4, 1, 7, 1000, &path));
  EXPECT_FALSE(shard::create_claim(dir, "stage a", 0, 4, 1, 8, 2000,
                                   nullptr));
  shard::ClaimState state = shard::read_claim(dir, "stage a", 0);
  ASSERT_TRUE(state.exists());
  EXPECT_TRUE(state.valid);
  EXPECT_EQ(state.gen, 1);
  EXPECT_EQ(state.worker, 7);
  EXPECT_EQ(state.lo, 0u);
  EXPECT_EQ(state.len, 4u);
  EXPECT_EQ(state.deadline_ms, 1000);
  EXPECT_FALSE(state.done);
  EXPECT_FALSE(state.expired(1000));
  EXPECT_TRUE(state.expired(1001));

  // Renewal and completion rewrite the owned file atomically.
  ASSERT_TRUE(shard::rewrite_claim(state.path, 7, 0, 4, 5000, true));
  state = shard::read_claim(dir, "stage a", 0);
  EXPECT_EQ(state.gen, 1);
  EXPECT_EQ(state.deadline_ms, 5000);
  EXPECT_TRUE(state.done);

  // Stealing creates the next generation; reads follow the highest.
  ASSERT_TRUE(shard::create_claim(dir, "stage a", 0, 4, 2, 9, 9000, &path));
  state = shard::read_claim(dir, "stage a", 0);
  EXPECT_EQ(state.gen, 2);
  EXPECT_EQ(state.worker, 9);
  EXPECT_FALSE(state.done);

  // A torn claim (killed mid-rename) is expired, never trusted.
  {
    std::ofstream torn(shard::claim_path(dir, "stage a", 0, 3));
    torn << "sesp-claim/1 worker=9 lo=0";
  }
  state = shard::read_claim(dir, "stage a", 0);
  EXPECT_EQ(state.gen, 3);
  EXPECT_FALSE(state.valid);
  EXPECT_TRUE(state.expired(0));

  // Distinct stages never collide, even when sanitization would merge
  // their printable names.
  EXPECT_NE(shard::stage_key("sweep#2"), shard::stage_key("sweep_2"));
  ASSERT_TRUE(shard::create_claim(dir, "sweep#2", 0, 1, 1, 1, 1, nullptr));
  ASSERT_TRUE(shard::create_claim(dir, "sweep_2", 0, 1, 1, 2, 1, nullptr));
  fs::remove_all(dir);
}

// --- manifest ---------------------------------------------------------------

TEST(ManifestTest, FirstArriverWritesEveryoneElseValidates) {
  const std::string dir = temp_dir("manifest_unit");
  std::string error;
  ASSERT_TRUE(shard::ensure_shard_dir(dir, &error)) << error;
  ASSERT_TRUE(shard::ensure_manifest(dir, kTool, kDigest, &error)) << error;
  // Idempotent for the same (tool, config)...
  EXPECT_TRUE(shard::ensure_manifest(dir, kTool, kDigest, &error));
  std::string tool;
  std::uint64_t digest = 0;
  ASSERT_TRUE(shard::read_manifest(dir, &tool, &digest, &error)) << error;
  EXPECT_EQ(tool, kTool);
  EXPECT_EQ(digest, kDigest);
  // ...and an error for any other: the shard analogue of resuming the
  // wrong journal.
  EXPECT_FALSE(shard::ensure_manifest(dir, kTool, kDigest + 1, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(shard::ensure_manifest(dir, "other_tool", kDigest, &error));
  fs::remove_all(dir);
}

// --- merge ------------------------------------------------------------------

std::unique_ptr<recovery::RunJournal> worker_journal(const std::string& dir,
                                                     int worker,
                                                     std::uint64_t digest) {
  std::string error;
  auto journal = recovery::RunJournal::create(
      dir + "/worker-" + std::to_string(worker) + ".journal", kTool, digest,
      &error);
  EXPECT_NE(journal, nullptr) << error;
  if (journal) journal->set_fsync(false);
  return journal;
}

TEST(MergeTest, DeduplicatesUpgradesFailuresAndDropsLeases) {
  const std::string dir = temp_dir("merge_unit");
  std::string error;
  ASSERT_TRUE(shard::ensure_shard_dir(dir, &error)) << error;
  ASSERT_TRUE(shard::ensure_manifest(dir, kTool, kDigest, &error)) << error;

  recovery::TaskFailure failure;
  failure.kind = recovery::TaskFailure::Kind::kException;
  failure.attempts = 2;
  failure.detail = "boom";
  {
    auto j0 = worker_journal(dir, 0, kDigest);
    ASSERT_TRUE(j0->append("alpha", 0, "from worker 0"));
    ASSERT_TRUE(j0->append("alpha", 2, recovery::encode_task_failure(
                                           failure)));
    recovery::LeaseRecord lease;
    lease.worker = 0;
    lease.stage = "alpha";
    lease.lo = 0;
    lease.len = 4;
    lease.deadline_ms = 0;
    lease.event = "done";
    ASSERT_TRUE(j0->append_lease(lease));

    auto j1 = worker_journal(dir, 1, kDigest);
    ASSERT_TRUE(j1->append("alpha", 1, "from worker 1"));
    // Duplicate of slot 0: both non-failure, the lowest worker id wins.
    ASSERT_TRUE(j1->append("alpha", 0, "duplicate from worker 1"));
    // Duplicate of slot 2: a successful retry upgrades the failure.
    ASSERT_TRUE(j1->append("alpha", 2, "recovered"));
  }

  const shard::MergeStats merge = shard::merge_shard_dir(dir);
  ASSERT_TRUE(merge.ok) << merge.error;
  EXPECT_EQ(merge.workers, 2);
  EXPECT_EQ(merge.records, 3);
  EXPECT_EQ(merge.duplicates, 2);
  EXPECT_EQ(merge.lease_events, 1);
  EXPECT_EQ(merge.ranges_done, 1);
  EXPECT_EQ(merge.out_path, dir + "/merged.journal");

  auto merged = recovery::RunJournal::open_resume(merge.out_path, &error);
  ASSERT_NE(merged, nullptr) << error;
  EXPECT_TRUE(merged->matches(kTool, kDigest));
  EXPECT_EQ(merged->records(), 3);
  ASSERT_NE(merged->lookup("alpha", 0), nullptr);
  EXPECT_EQ(*merged->lookup("alpha", 0), "from worker 0");
  EXPECT_EQ(*merged->lookup("alpha", 1), "from worker 1");
  EXPECT_EQ(*merged->lookup("alpha", 2), "recovered");
  EXPECT_TRUE(merged->leases().empty());

  // Merging again produces byte-identical output.
  const std::string first = read_file(merge.out_path);
  const shard::MergeStats again =
      shard::merge_shard_dir(dir, dir + "/merged2.journal");
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(read_file(again.out_path), first);

  // A journal written under a different configuration poisons the merge.
  { worker_journal(dir, 2, kDigest + 1); }
  EXPECT_FALSE(shard::merge_shard_dir(dir).ok);
  fs::remove_all(dir);
}

// --- kill-and-steal determinism across the sweep families -------------------
//
// run_sharded() executes one sweep with `workers` simulated workers taking
// sequential partial turns (each stops after `stop_after` checkpoints, like
// SESP_STOP_AFTER) until some worker's turn completes uninterrupted — that
// worker has gathered or computed every slot, so its result is the full
// report. With kill_worker >= 0, that worker dies for good after its first
// turn: its journal tail is torn mid-record and its claim files are left to
// expire, exactly the residue of a SIGKILL, and the survivors must steal.

template <typename Result>
std::optional<Result> worker_turn(const std::string& dir, int worker,
                                  std::int64_t stop_after,
                                  const std::function<Result()>& run) {
  const std::string path =
      dir + "/worker-" + std::to_string(worker) + ".journal";
  std::string error;
  auto journal = fs::exists(path)
                     ? recovery::RunJournal::open_resume(path, &error)
                     : recovery::RunJournal::create(path, kTool, kDigest,
                                                    &error);
  if (!journal) {
    ADD_FAILURE() << "worker " << worker << ": " << error;
    return std::nullopt;
  }
  journal->set_fsync(false);

  shard::ShardOptions sopt;
  sopt.dir = dir;
  sopt.worker_id = worker;
  sopt.lease_ms = 60;  // short: a dead worker's leases expire within a turn
  sopt.poll_ms = 5;
  auto shard = shard::ShardContext::open(sopt, &error);
  if (!shard) {
    ADD_FAILURE() << "worker " << worker << ": " << error;
    return std::nullopt;
  }

  recovery::Supervisor sup(std::move(journal), {});
  sup.set_shard(shard.get());
  sup.set_stop_after(stop_after);
  recovery::Supervisor* prev = recovery::Supervisor::install(&sup);
  Result result = run();
  recovery::Supervisor::install(prev);
  if (sup.interrupted()) return std::nullopt;
  return result;
}

void tear_journal_tail(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (!ec && size > 8) fs::resize_file(path, size - 5, ec);
}

template <typename Result>
Result run_sharded(const std::string& name, int workers, int jobs,
                   std::int64_t stop_after, int kill_worker,
                   const std::function<Result()>& run,
                   std::string* merged_bytes) {
  const std::string dir = temp_dir(name);
  std::string error;
  if (!shard::ensure_shard_dir(dir, &error) ||
      !shard::ensure_manifest(dir, kTool, kDigest, &error)) {
    ADD_FAILURE() << error;
    return Result{};
  }
  JobsGuard guard(jobs);
  bool killed = false;
  for (int round = 0; round < 500; ++round) {
    for (int w = 0; w < workers; ++w) {
      if (killed && w == kill_worker) continue;  // dead for good
      const auto result = worker_turn<Result>(dir, w, stop_after, run);
      if (result) {
        if (merged_bytes) {
          const shard::MergeStats merge = shard::merge_shard_dir(dir);
          EXPECT_TRUE(merge.ok) << merge.error;
          *merged_bytes = read_file(merge.out_path);
        }
        fs::remove_all(dir);
        return *result;
      }
      if (w == kill_worker && !killed) {
        killed = true;
        tear_journal_tail(dir + "/worker-" + std::to_string(w) +
                          ".journal");
      }
    }
  }
  ADD_FAILURE() << name << " never completed";
  fs::remove_all(dir);
  return Result{};
}

struct ShardConfig {
  const char* tag;
  int workers;
  int jobs;
  int kill_worker;  // -1 = nobody dies
};

// The determinism contract's matrix: a solo worker, three clean workers,
// and three workers with one SIGKILLed mid-range, at jobs 1/2/8 — every
// cell must equal the plain serial reference and produce byte-identical
// merged journals.
constexpr ShardConfig kConfigs[] = {
    {"solo", 1, 1, -1},   {"trio", 3, 2, -1},    {"kill_j1", 3, 1, 1},
    {"kill_j2", 3, 2, 1}, {"kill_j8", 3, 8, 1},
};

template <typename Result>
void expect_sharded_determinism(const std::string& name,
                                const Result& reference,
                                const std::function<Result()>& run) {
  std::string canonical;
  for (const ShardConfig& cfg : kConfigs) {
    std::string merged;
    const Result got =
        run_sharded<Result>(name + "_" + cfg.tag, cfg.workers, cfg.jobs, 2,
                            cfg.kill_worker, run, &merged);
    EXPECT_EQ(got, reference) << cfg.tag;
    EXPECT_FALSE(merged.empty()) << cfg.tag;
    if (canonical.empty()) canonical = merged;
    else EXPECT_EQ(merged, canonical) << cfg.tag;
  }
}

TEST(ShardKillStealTest, WorstCaseFamilyIsByteIdentical) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints = TimingConstraints::semi_synchronous(
      Duration(1), Duration(2), Duration(3));
  SemiSyncMpmFactory factory;
  JobsGuard serial(1);
  const WorstCase reference =
      mpm_worst_case(spec, constraints, factory, 4);
  ASSERT_GT(reference.runs, 0);
  expect_sharded_determinism<WorstCase>(
      "shard_worst", reference,
      [&] { return mpm_worst_case(spec, constraints, factory, 4); });
}

TEST(ShardKillStealTest, DegradationGridIsByteIdentical) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints = TimingConstraints::semi_synchronous(
      Duration(1), Duration(2), Duration(3));
  SemiSyncMpmFactory factory;
  JobsGuard serial(1);
  const DegradationReport reference =
      mpm_degradation(spec, constraints, factory);
  ASSERT_FALSE(reference.cells.empty());
  expect_sharded_determinism<DegradationReport>(
      "shard_degradation", reference,
      [&] { return mpm_degradation(spec, constraints, factory); });
}

TEST(ShardKillStealTest, ChaosSweepIsByteIdentical) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints = TimingConstraints::semi_synchronous(
      Duration(1), Duration(3), Duration(4));
  SemiSyncMpmFactory factory;
  RunLimits limits;
  limits.max_steps = 20'000;
  JobsGuard serial(1);
  const ChaosReport reference =
      mpm_chaos_sweep(spec, constraints, factory, 16, 0xC4A05ULL, limits);
  ASSERT_EQ(reference.runs, 16);
  expect_sharded_determinism<ChaosReport>(
      "shard_chaos", reference, [&] {
        return mpm_chaos_sweep(spec, constraints, factory, 16, 0xC4A05ULL,
                               limits);
      });
}

TEST(ShardKillStealTest, ExhaustiveEnumerationIsByteIdentical) {
  const ProblemSpec spec{2, 2, 2};
  const auto constraints =
      TimingConstraints::sporadic(Duration(1), Duration(0), Duration(2));
  SporadicMpmFactory factory;
  const std::vector<Duration> gaps{Duration(1), Duration(2)};
  const std::vector<Duration> delays{Duration(0), Duration(1), Duration(2)};
  // The budget-truncated walk: recovery_test proves truncated and complete
  // walks both survive kill-resume; the sharded layer only needs one, and
  // the truncated walk keeps the five-config matrix fast.
  JobsGuard serial(1);
  const ExhaustiveResult reference =
      explore_mpm(spec, constraints, factory, gaps, delays, 50);
  expect_sharded_determinism<ExhaustiveResult>(
      "shard_exhaustive", reference, [&] {
        return explore_mpm(spec, constraints, factory, gaps, delays, 50);
      });
}

TEST(ShardKillStealTest, ConformanceCampaignIsByteIdentical) {
  conformance::ConformanceConfig config;
  config.cases_per_cell = 5;
  config.seed = 11;
  config.minimize = false;
  config.jobs = 1;
  JobsGuard serial(1);
  const conformance::ConformanceReport reference =
      conformance::run_conformance(config);
  ASSERT_GT(reference.total_cases, 0);

  std::string canonical;
  for (const ShardConfig& cfg : kConfigs) {
    config.jobs = cfg.jobs;
    std::string merged;
    const conformance::ConformanceReport got =
        run_sharded<conformance::ConformanceReport>(
            std::string("shard_conformance_") + cfg.tag, cfg.workers,
            cfg.jobs, 2, cfg.kill_worker,
            [&] { return conformance::run_conformance(config); }, &merged);
    EXPECT_EQ(got.digest, reference.digest) << cfg.tag;
    EXPECT_EQ(got.summary(), reference.summary()) << cfg.tag;
    EXPECT_FALSE(merged.empty()) << cfg.tag;
    if (canonical.empty()) canonical = merged;
    else EXPECT_EQ(merged, canonical) << cfg.tag;
  }
}

}  // namespace
}  // namespace sesp
