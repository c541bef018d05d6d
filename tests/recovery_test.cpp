// The crash-safe supervised-execution contracts (docs/robustness.md):
//
//  1. Codec: payload key=value framing round-trips arbitrary bytes, and the
//     reserved task-failure payload survives encode/decode.
//  2. Journal: append/open_resume round-trips records, tolerates a torn
//     tail, and refuses a different tool or configuration.
//  3. Supervisor: replayed slots never recompute; throwing and
//     deadline-overrunning slots retry and then become structured
//     TaskFailure payloads, never aborts; SESP_STOP_AFTER-style stops skip
//     pending slots.
//  4. Kill-and-resume determinism: every sweep driver, hard-interrupted at
//     randomized checkpoints and resumed any number of times at any job
//     count, produces a report identical to an uninterrupted serial run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adversary/exhaustive.hpp"
#include "algorithms/mpm/async_alg.hpp"
#include "algorithms/mpm/semisync_alg.hpp"
#include "algorithms/mpm/sporadic_alg.hpp"
#include "algorithms/smm/async_alg.hpp"
#include "algorithms/smm/semisync_alg.hpp"
#include "conformance/harness.hpp"
#include "obs/observer.hpp"
#include "recovery/journal.hpp"
#include "recovery/payload.hpp"
#include "recovery/supervisor.hpp"
#include "shard/shard.hpp"
#include "sim/experiment.hpp"
#include "support/test_support.hpp"

namespace sesp {
namespace {

using test_support::JobsGuard;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- payload codec ----------------------------------------------------------

TEST(PayloadTest, RoundTripsEscapedBytes) {
  recovery::PayloadWriter w;
  w.put("plain", "value");
  w.put("newlines", "a\nb\r\nc");
  w.put("backslash", "C:\\path\\n not a newline");
  w.put("equals", "k=v=w");
  w.put("empty", "");
  w.put_int("neg", -42);
  w.put_uint("big", 0xFFFFFFFFFFFFFFFFULL);
  w.put_bool("yes", true);
  w.put_bool("no", false);

  const recovery::PayloadReader r(w.str());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.get("plain"), "value");
  EXPECT_EQ(r.get("newlines"), "a\nb\r\nc");
  EXPECT_EQ(r.get("backslash"), "C:\\path\\n not a newline");
  EXPECT_EQ(r.get("equals"), "k=v=w");
  EXPECT_TRUE(r.has("empty"));
  EXPECT_EQ(r.get("empty"), "");
  EXPECT_EQ(r.get_int("neg", 0), -42);
  EXPECT_EQ(r.get_uint("big", 0), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_TRUE(r.get_bool("yes", false));
  EXPECT_FALSE(r.get_bool("no", true));
}

TEST(PayloadTest, MissingKeysFallBack) {
  recovery::PayloadWriter w;
  w.put("present", "x");
  const recovery::PayloadReader r(w.str());
  EXPECT_FALSE(r.has("absent"));
  EXPECT_EQ(r.get("absent", "fallback"), "fallback");
  EXPECT_EQ(r.get_int("absent", 7), 7);
  EXPECT_TRUE(r.get_bool("absent", true));
}

TEST(PayloadTest, TaskFailureRoundTripsAndRejectsLookalikes) {
  recovery::TaskFailure f;
  f.kind = recovery::TaskFailure::Kind::kDeadline;
  f.attempts = 3;
  f.detail = "slot 7 took 2.5s\nsecond line";
  const std::string payload = recovery::encode_task_failure(f);

  const auto decoded = recovery::decode_task_failure(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, recovery::TaskFailure::Kind::kDeadline);
  EXPECT_EQ(decoded->attempts, 3);
  EXPECT_EQ(decoded->detail, f.detail);
  EXPECT_NE(decoded->to_string().find("deadline"), std::string::npos);

  // Ordinary payloads — including ones whose first key merely extends the
  // reserved marker — must not decode as failures.
  recovery::PayloadWriter ordinary;
  ordinary.put("label", "run 3");
  EXPECT_FALSE(recovery::decode_task_failure(ordinary.str()).has_value());
  recovery::PayloadWriter lookalike;
  lookalike.put("__task_failureX", "1");
  EXPECT_FALSE(recovery::decode_task_failure(lookalike.str()).has_value());
}

// --- journal ----------------------------------------------------------------

TEST(JournalTest, AppendAndResumeRoundTrip) {
  const std::string path = temp_path("journal_roundtrip.journal");
  std::remove(path.c_str());
  std::string error;
  {
    auto journal = recovery::RunJournal::create(path, "unit", 0xDEADBEEF,
                                                &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    // Raw payloads exercise the framing, including embedded "." lines and
    // trailing newlines the loader must not confuse with the terminator.
    EXPECT_TRUE(journal->append("stage_a", 0, "k=v\nline2"));
    EXPECT_TRUE(journal->append("stage_a", 2, "one\n.\ntwo\n"));
    EXPECT_TRUE(journal->append("stage_b", 0, ""));
    EXPECT_EQ(journal->records(), 3);
  }
  auto resumed = recovery::RunJournal::open_resume(path, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_TRUE(resumed->matches("unit", 0xDEADBEEF));
  EXPECT_FALSE(resumed->matches("other", 0xDEADBEEF));
  EXPECT_FALSE(resumed->matches("unit", 0xDEADBEF0));
  EXPECT_EQ(resumed->records(), 3);
  EXPECT_EQ(resumed->dropped_on_load(), 0);
  ASSERT_NE(resumed->lookup("stage_a", 0), nullptr);
  EXPECT_EQ(*resumed->lookup("stage_a", 0), "k=v\nline2");
  ASSERT_NE(resumed->lookup("stage_a", 2), nullptr);
  EXPECT_EQ(*resumed->lookup("stage_a", 2), "one\n.\ntwo\n");
  ASSERT_NE(resumed->lookup("stage_b", 0), nullptr);
  EXPECT_EQ(*resumed->lookup("stage_b", 0), "");
  EXPECT_EQ(resumed->lookup("stage_a", 1), nullptr);
  std::remove(path.c_str());
}

TEST(JournalTest, TornTailIsDroppedIntactPrefixSurvives) {
  const std::string path = temp_path("journal_torn.journal");
  std::remove(path.c_str());
  std::string error;
  {
    auto journal =
        recovery::RunJournal::create(path, "unit", 1, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    ASSERT_TRUE(journal->append("s", 0, "payload zero"));
    ASSERT_TRUE(journal->append("s", 1, "payload one"));
    ASSERT_TRUE(journal->append("s", 2, "payload two"));
  }
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // Chop at several depths into the last record: frame line, payload,
  // terminator. Every cut must resume to the intact two-record prefix.
  const std::size_t last_frame = text.rfind("S s 2");
  ASSERT_NE(last_frame, std::string::npos);
  for (const std::size_t keep :
       {last_frame + 3, last_frame + 20, text.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text.substr(0, keep);
    }
    auto resumed = recovery::RunJournal::open_resume(path, &error);
    ASSERT_NE(resumed, nullptr) << "keep=" << keep << ": " << error;
    EXPECT_EQ(resumed->records(), 2) << "keep=" << keep;
    EXPECT_EQ(resumed->dropped_on_load(), 1) << "keep=" << keep;
    ASSERT_NE(resumed->lookup("s", 1), nullptr);
    EXPECT_EQ(*resumed->lookup("s", 1), "payload one");
    EXPECT_EQ(resumed->lookup("s", 2), nullptr);
    // The reopened journal keeps accepting appends after the repair.
    resumed->set_fsync(false);
    EXPECT_TRUE(resumed->append("s", 2, "payload two again"));
  }
  std::remove(path.c_str());
}

TEST(JournalTest, MissingFileAndCorruptHeaderAreErrors) {
  std::string error;
  EXPECT_EQ(recovery::RunJournal::open_resume(
                temp_path("definitely_missing.journal"), &error),
            nullptr);
  EXPECT_FALSE(error.empty());

  const std::string path = temp_path("journal_bad_header.journal");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not-a-journal-header\n";
  }
  EXPECT_EQ(recovery::RunJournal::open_resume(path, &error), nullptr);
  std::remove(path.c_str());
}

TEST(JournalTest, LeaseRecordsRoundTripAndNeverAffectReplay) {
  const std::string path = temp_path("journal_leases.journal");
  std::remove(path.c_str());
  std::string error;
  {
    auto journal = recovery::RunJournal::create(path, "unit", 5, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    recovery::LeaseRecord claim;
    claim.worker = 2;
    claim.stage = "sweep";
    claim.lo = 0;
    claim.len = 4;
    claim.deadline_ms = 123456789;
    claim.event = "claim";
    ASSERT_TRUE(journal->append_lease(claim));
    ASSERT_TRUE(journal->append("sweep", 0, "payload 0"));
    recovery::LeaseRecord done = claim;
    done.deadline_ms = 0;
    done.event = "done";
    ASSERT_TRUE(journal->append_lease(done));
  }

  // open_resume replays slots only; lease events surface via leases().
  auto journal = recovery::RunJournal::open_resume(path, &error);
  ASSERT_NE(journal, nullptr) << error;
  EXPECT_EQ(journal->records(), 1);
  ASSERT_NE(journal->lookup("sweep", 0), nullptr);
  EXPECT_EQ(*journal->lookup("sweep", 0), "payload 0");
  const std::vector<recovery::LeaseRecord> leases = journal->leases();
  ASSERT_EQ(leases.size(), 2u);
  EXPECT_EQ(leases[0].worker, 2);
  EXPECT_EQ(leases[0].stage, "sweep");
  EXPECT_EQ(leases[0].lo, 0u);
  EXPECT_EQ(leases[0].len, 4u);
  EXPECT_EQ(leases[0].deadline_ms, 123456789);
  EXPECT_EQ(leases[0].event, "claim");
  EXPECT_EQ(leases[1].event, "done");
  EXPECT_EQ(leases[1].deadline_ms, 0);

  // The snapshot loader sees the same picture, and a torn lease tail (a
  // mid-append kill) drops cleanly without taking the intact prefix along.
  recovery::JournalSnapshot snap = recovery::read_journal_snapshot(path);
  ASSERT_TRUE(snap.ok) << snap.error;
  EXPECT_EQ(snap.records.size(), 1u);
  EXPECT_EQ(snap.leases.size(), 2u);
  {
    std::ofstream out(path, std::ios::app);
    out << "L 2 sweep 4 4 99";  // torn: no event, checksum, or newline
  }
  snap = recovery::read_journal_snapshot(path);
  ASSERT_TRUE(snap.ok) << snap.error;
  EXPECT_EQ(snap.records.size(), 1u);
  EXPECT_EQ(snap.leases.size(), 2u);
  EXPECT_EQ(snap.dropped, 1);
  std::remove(path.c_str());
}

// --- supervisor -------------------------------------------------------------

std::unique_ptr<recovery::RunJournal> fresh_journal(const std::string& path,
                                                    std::uint64_t digest) {
  std::remove(path.c_str());
  std::string error;
  auto journal = recovery::RunJournal::create(path, "recovery_test", digest,
                                              &error);
  EXPECT_NE(journal, nullptr) << error;
  if (journal) journal->set_fsync(false);
  return journal;
}

TEST(SupervisorTest, ReplayedSlotsNeverRecompute) {
  const std::string path = temp_path("supervisor_replay.journal");
  {
    recovery::Supervisor sup(fresh_journal(path, 2), {});
    sup.for_each_slot(
        "stage", 6,
        [](std::size_t i) { return "value " + std::to_string(i); },
        [](std::size_t, const std::string&) {}, nullptr, 2);
    EXPECT_EQ(sup.stats().slots_executed, 6);
  }
  std::string error;
  auto journal = recovery::RunJournal::open_resume(path, &error);
  ASSERT_NE(journal, nullptr) << error;
  journal->set_fsync(false);
  recovery::Supervisor sup(std::move(journal), {});
  std::vector<std::string> applied(6);
  sup.for_each_slot(
      "stage", 6,
      [](std::size_t i) -> std::string {
        ADD_FAILURE() << "slot " << i << " recomputed on resume";
        return "";
      },
      [&](std::size_t i, const std::string& payload) {
        applied[i] = payload;
      },
      nullptr, 2);
  const recovery::SupervisorStats stats = sup.stats();
  EXPECT_EQ(stats.slots_replayed, 6);
  EXPECT_EQ(stats.slots_executed, 0);
  for (std::size_t i = 0; i < applied.size(); ++i)
    EXPECT_EQ(applied[i], "value " + std::to_string(i));
  std::remove(path.c_str());
}

TEST(SupervisorTest, SameStageNameGetsDistinctJournalNamespaces) {
  const std::string path = temp_path("supervisor_dedup.journal");
  {
    recovery::Supervisor sup(fresh_journal(path, 3), {});
    sup.for_each_slot(
        "sweep", 2, [](std::size_t i) { return "first " + std::to_string(i); },
        [](std::size_t, const std::string&) {}, nullptr, 1);
    sup.for_each_slot(
        "sweep", 2,
        [](std::size_t i) { return "second " + std::to_string(i); },
        [](std::size_t, const std::string&) {}, nullptr, 1);
  }
  std::string error;
  auto journal = recovery::RunJournal::open_resume(path, &error);
  ASSERT_NE(journal, nullptr) << error;
  recovery::Supervisor sup(std::move(journal), {});
  std::vector<std::string> first(2), second(2);
  sup.for_each_slot(
      "sweep", 2,
      [](std::size_t) -> std::string { return "MISS"; },
      [&](std::size_t i, const std::string& p) { first[i] = p; }, nullptr, 1);
  sup.for_each_slot(
      "sweep", 2,
      [](std::size_t) -> std::string { return "MISS"; },
      [&](std::size_t i, const std::string& p) { second[i] = p; }, nullptr, 1);
  EXPECT_EQ(first[0], "first 0");
  EXPECT_EQ(first[1], "first 1");
  EXPECT_EQ(second[0], "second 0");
  EXPECT_EQ(second[1], "second 1");
  std::remove(path.c_str());
}

TEST(SupervisorTest, ThrowingSlotRetriesThenSucceeds) {
  recovery::TaskPolicy policy;
  policy.max_retries = 2;
  policy.backoff_ms = 1;
  recovery::Supervisor sup(nullptr, policy);
  std::vector<std::atomic<int>> attempts(4);
  std::vector<std::string> applied(4);
  sup.for_each_slot(
      "flaky", 4,
      [&](std::size_t i) -> std::string {
        if (attempts[i].fetch_add(1) == 0)
          throw std::runtime_error("first attempt fails");
        return "ok " + std::to_string(i);
      },
      [&](std::size_t i, const std::string& p) { applied[i] = p; }, nullptr, 2);
  const recovery::SupervisorStats stats = sup.stats();
  EXPECT_EQ(stats.retries, 4);
  EXPECT_EQ(stats.failures, 0);
  for (std::size_t i = 0; i < applied.size(); ++i) {
    EXPECT_EQ(applied[i], "ok " + std::to_string(i));
    EXPECT_FALSE(recovery::decode_task_failure(applied[i]).has_value());
  }
}

TEST(SupervisorTest, ExhaustedRetriesBecomeStructuredFailure) {
  recovery::TaskPolicy policy;
  policy.max_retries = 1;
  policy.backoff_ms = 1;
  recovery::Supervisor sup(nullptr, policy);
  std::string applied;
  sup.for_each_slot(
      "doomed", 1,
      [](std::size_t) -> std::string {
        throw std::runtime_error("always broken");
      },
      [&](std::size_t, const std::string& p) { applied = p; }, nullptr, 1);
  const auto failure = recovery::decode_task_failure(applied);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, recovery::TaskFailure::Kind::kException);
  EXPECT_EQ(failure->attempts, 2);
  EXPECT_EQ(failure->detail, "always broken");
  EXPECT_EQ(sup.stats().failures, 1);
  EXPECT_EQ(sup.stats().retries, 1);
  EXPECT_FALSE(sup.interrupted());  // isolation, not interruption
}

TEST(SupervisorTest, DeadlineOverrunBecomesStructuredFailure) {
  recovery::TaskPolicy policy;
  policy.deadline_seconds = 1e-6;
  policy.max_retries = 1;
  policy.backoff_ms = 1;
  recovery::Supervisor sup(nullptr, policy);
  std::string applied;
  sup.for_each_slot(
      "slow", 1,
      [](std::size_t) -> std::string {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return "finished anyway";
      },
      [&](std::size_t, const std::string& p) { applied = p; }, nullptr, 1);
  const auto failure = recovery::decode_task_failure(applied);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, recovery::TaskFailure::Kind::kDeadline);
  EXPECT_EQ(failure->attempts, 2);
  EXPECT_GE(sup.stats().deadline_exceeded, 1);
}

TEST(SupervisorTest, RetryBackoffIsDeterministicJitteredAndCapped) {
  recovery::TaskPolicy policy;
  policy.backoff_ms = 100;

  // The first attempt never waits; retries do.
  EXPECT_EQ(recovery::retry_backoff_ms(policy, 7, 3, 0), 0);
  EXPECT_EQ(recovery::retry_backoff_ms(policy, 7, 3, 1), 0);

  // Pure function of (policy, digest, slot, attempt): identical across
  // resumes and shard workers — no clock, no global state.
  for (std::int32_t attempt = 2; attempt <= 6; ++attempt) {
    const std::int64_t a = recovery::retry_backoff_ms(policy, 7, 3, attempt);
    const std::int64_t b = recovery::retry_backoff_ms(policy, 7, 3, attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;
    // Base doubles per retry, capped at 1s; jitter adds at most 25%.
    const std::int64_t base = std::min<std::int64_t>(
        policy.backoff_ms << (attempt - 2), 1000);
    EXPECT_GE(a, base) << "attempt " << attempt;
    EXPECT_LE(a, base + base / 4) << "attempt " << attempt;
  }

  // Distinct slots and configs decorrelate: at least one of a handful of
  // neighbours lands on a different jitter.
  const std::int64_t here = recovery::retry_backoff_ms(policy, 7, 3, 2);
  bool differs = false;
  for (std::size_t slot = 0; slot < 16 && !differs; ++slot)
    differs = recovery::retry_backoff_ms(policy, 7, slot, 2) != here ||
              recovery::retry_backoff_ms(policy, 8, slot, 2) != here;
  EXPECT_TRUE(differs);

  // Tiny bases stay exact (jitter range collapses to base/4 = 0).
  policy.backoff_ms = 1;
  EXPECT_EQ(recovery::retry_backoff_ms(policy, 7, 0, 2), 1);
}

TEST(SupervisorTest, StopAfterSkipsPendingSlots) {
  const std::string path = temp_path("supervisor_stop.journal");
  recovery::Supervisor sup(fresh_journal(path, 4), {});
  sup.set_stop_after(3);
  std::vector<bool> applied(10, false);
  sup.for_each_slot(
      "stage", 10,
      [](std::size_t i) { return std::to_string(i); },
      [&](std::size_t i, const std::string&) { applied[i] = true; },
      nullptr, 1);
  EXPECT_TRUE(sup.interrupted());
  const recovery::SupervisorStats stats = sup.stats();
  EXPECT_EQ(stats.slots_executed, 3);
  EXPECT_EQ(stats.slots_skipped, 7);
  // Serial execution stops in order: the first three slots applied, the
  // rest pending for the resume.
  for (std::size_t i = 0; i < applied.size(); ++i)
    EXPECT_EQ(applied[i], i < 3) << "slot " << i;
  std::remove(path.c_str());
}

// SESP_STOP_AFTER=N is a hard cap: however many tasks are in flight when
// the N-th append lands, append N+1 is refused and its result dropped, so
// the journal holds exactly N records and exactly N slots apply — at any
// job count, on any host.
TEST(SupervisorTest, StopAfterIsAHardCapAtAnyJobCount) {
  const std::string path = temp_path("supervisor_cap.journal");
  for (const int jobs : {1, 2, 4, 8}) {
    for (const std::int64_t cap : {0, 1, 3, 5}) {
      std::int64_t applied = 0;
      {
        recovery::Supervisor sup(fresh_journal(path, 4), {});
        sup.set_stop_after(cap);
        sup.for_each_slot(
            "stage", 32,
            [](std::size_t i) {
              // Long enough that every worker is mid-task when the cap
              // trips.
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              return std::to_string(i);
            },
            [&](std::size_t, const std::string&) { ++applied; }, nullptr, jobs);
        EXPECT_TRUE(sup.interrupted());
        EXPECT_EQ(sup.stats().slots_executed, cap);
        EXPECT_EQ(sup.stats().slots_skipped, 32 - cap);
      }
      EXPECT_EQ(applied, cap) << "jobs=" << jobs << " cap=" << cap;
      const recovery::JournalSnapshot snap =
          recovery::read_journal_snapshot(path);
      ASSERT_TRUE(snap.ok) << snap.error;
      EXPECT_EQ(static_cast<std::int64_t>(snap.records.size()), cap)
          << "jobs=" << jobs << " cap=" << cap;
    }
  }
  std::remove(path.c_str());
}

// The supervised slot loop's observable footprint, pinned for one sweep run
// five ways: plain, journaled, killed after three checkpoints and resumed,
// and as a shard worker in a 1-worker and a 2-worker shard directory. An
// observation is the applied payloads, every recovery.* / shard.* counter,
// the non-zero profile phase counts and every trace instant's name,
// category and args — no timestamps, and no shard.lease.renew, whose count
// follows the wall clock. Slot 4 throws once and then succeeds; slot 5
// always throws and folds as a TaskFailure. The values were recorded
// before the plain and sharded loops became one.
constexpr std::uint64_t kPinDigest = 5;

std::vector<std::string> observe_pinned_sweep(recovery::Supervisor& sup) {
  obs::MetricsRegistry metrics;
  obs::TraceSink sink;
  obs::Profiler profiler;
  obs::Observer observer(&metrics, &sink);
  observer.profiler = &profiler;
  std::atomic<bool> slot4_failed{false};
  std::string applied = "applied ";
  sup.for_each_slot(
      "pin", 6,
      [&](std::size_t i) -> std::string {
        if (i == 5) throw std::runtime_error("slot 5 always fails");
        if (i == 4 && !slot4_failed.exchange(true))
          throw std::runtime_error("slot 4 fails once");
        return "v" + std::to_string(i);
      },
      [&](std::size_t i, const std::string& payload) {
        applied += std::to_string(i) + "=" + payload.substr(0, 16) + ";";
      },
      &observer, 1);
  std::vector<std::string> lines{applied};
  for (const auto& [name, counter] : metrics.counters())
    if (name.rfind("recovery.", 0) == 0 || name.rfind("shard.", 0) == 0)
      lines.push_back(name + "=" + std::to_string(counter.value()));
  for (int p = 0; p < obs::kProfilePhases; ++p) {
    const auto phase = static_cast<obs::ProfilePhase>(p);
    if (profiler.stat(phase).count > 0)
      lines.push_back(std::string("profile ") +
                      obs::profile_phase_name(phase) + "=" +
                      std::to_string(profiler.stat(phase).count));
  }
  for (const obs::TraceEvent& e : sink.events())
    if (e.name != "shard.lease.renew")
      lines.push_back(e.name + " " + e.category + " " + e.args_json);
  return lines;
}

recovery::TaskPolicy pin_policy() {
  recovery::TaskPolicy policy;
  policy.max_retries = 1;
  policy.backoff_ms = 1;
  return policy;
}

std::string pin_shard_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::string error;
  EXPECT_TRUE(shard::ensure_shard_dir(dir, &error) &&
              shard::ensure_manifest(dir, "recovery_test", kPinDigest,
                                     &error))
      << error;
  return dir;
}

// One shard-worker turn over `dir` (its journal created on the first turn,
// resumed after); `stop_after` < 0 runs the turn to completion.
std::vector<std::string> pinned_worker_turn(const std::string& dir,
                                            int worker,
                                            std::int64_t stop_after) {
  const std::string path =
      dir + "/worker-" + std::to_string(worker) + ".journal";
  std::string error;
  auto journal = std::filesystem::exists(path)
                     ? recovery::RunJournal::open_resume(path, &error)
                     : recovery::RunJournal::create(path, "recovery_test",
                                                    kPinDigest, &error);
  shard::ShardOptions sopt;
  sopt.dir = dir;
  sopt.worker_id = worker;
  sopt.lease_ms = 600'000;  // no lease expires within the test
  sopt.poll_ms = 5;
  auto shard = shard::ShardContext::open(sopt, &error);
  EXPECT_TRUE(journal && shard) << error;
  if (!journal || !shard) return {};
  journal->set_fsync(false);
  recovery::Supervisor sup(std::move(journal), pin_policy());
  sup.set_shard(shard.get());
  sup.set_stop_after(stop_after);
  return observe_pinned_sweep(sup);
}

TEST(SupervisorTest, SlotLoopObservationIsPinned) {
  std::vector<std::vector<std::string>> got;
  {
    recovery::Supervisor sup(nullptr, pin_policy());
    got.push_back(observe_pinned_sweep(sup));
  }
  const std::string path = temp_path("supervisor_pin.journal");
  {
    recovery::Supervisor sup(fresh_journal(path, kPinDigest), pin_policy());
    got.push_back(observe_pinned_sweep(sup));
  }
  {
    recovery::Supervisor sup(fresh_journal(path, kPinDigest), pin_policy());
    sup.set_stop_after(3);
    got.push_back(observe_pinned_sweep(sup));
  }
  {
    std::string error;
    auto journal = recovery::RunJournal::open_resume(path, &error);
    ASSERT_NE(journal, nullptr) << error;
    journal->set_fsync(false);
    recovery::Supervisor sup(std::move(journal), pin_policy());
    got.push_back(observe_pinned_sweep(sup));
  }
  std::remove(path.c_str());
  const std::string one = pin_shard_dir("pin_shard1");
  got.push_back(pinned_worker_turn(one, 0, -1));
  const std::string two = pin_shard_dir("pin_shard2");
  got.push_back(pinned_worker_turn(two, 0, 3));
  got.push_back(pinned_worker_turn(two, 1, -1));
  std::filesystem::remove_all(one);
  std::filesystem::remove_all(two);

  const std::vector<std::vector<std::string>> pins = {
      // plain
      {R"(applied 0=v0;1=v1;2=v2;3=v3;4=v4;5=__task_failure=1;)",
       R"(recovery.slots.executed=6)",
       R"(recovery.slots.replayed=0)",
       R"(recovery.slots.skipped=0)",
       R"(recovery.task.deadline_exceeded=0)",
       R"(recovery.task.failures=1)",
       R"(recovery.task.retries=2)",
       R"(journal.stage recovery {"stage":"pin","replayed":0,"executed":6,"skipped":0})"},
      // journaled
      {R"(applied 0=v0;1=v1;2=v2;3=v3;4=v4;5=__task_failure=1;)",
       R"(recovery.slots.executed=6)",
       R"(recovery.slots.replayed=0)",
       R"(recovery.slots.skipped=0)",
       R"(recovery.task.deadline_exceeded=0)",
       R"(recovery.task.failures=1)",
       R"(recovery.task.retries=2)",
       R"(journal.stage recovery {"stage":"pin","replayed":0,"executed":6,"skipped":0})"},
      // killed after 3 checkpoints
      {R"(applied 0=v0;1=v1;2=v2;)",
       R"(recovery.slots.executed=3)",
       R"(recovery.slots.replayed=0)",
       R"(recovery.slots.skipped=3)",
       R"(recovery.task.deadline_exceeded=0)",
       R"(recovery.task.failures=0)",
       R"(recovery.task.retries=0)",
       R"(journal.stage recovery {"stage":"pin","replayed":0,"executed":3,"skipped":3})",
       R"(journal.interrupt recovery {"stage":"pin"})"},
      // resumed
      {R"(applied 0=v0;1=v1;2=v2;3=v3;4=v4;5=__task_failure=1;)",
       R"(recovery.slots.executed=3)",
       R"(recovery.slots.replayed=3)",
       R"(recovery.slots.skipped=0)",
       R"(recovery.task.deadline_exceeded=0)",
       R"(recovery.task.failures=1)",
       R"(recovery.task.retries=2)",
       R"(journal.stage recovery {"stage":"pin","replayed":3,"executed":3,"skipped":0})"},
      // 1-worker shard
      {R"(applied 0=v0;1=v1;2=v2;3=v3;4=v4;5=__task_failure=1;)",
       R"(recovery.slots.executed=6)",
       R"(recovery.slots.replayed=0)",
       R"(recovery.slots.skipped=0)",
       R"(recovery.task.deadline_exceeded=0)",
       R"(recovery.task.failures=1)",
       R"(recovery.task.retries=2)",
       R"(shard.leases.claimed=6)",
       R"(shard.leases.expired=0)",
       R"(shard.leases.stolen=0)",
       R"(profile shard.gather=6)",
       R"(shard.lease shard {"stage":"pin","lo":0,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":0,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":1,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":1,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":2,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":2,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":3,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":3,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":4,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":4,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":5,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":5,"len":1})",
       R"(journal.stage recovery {"stage":"pin","replayed":0,"executed":6,"skipped":0})"},
      // 2-worker shard, worker 0 killed after 3
      {R"(applied 0=v0;1=v1;2=v2;)",
       R"(recovery.slots.executed=3)",
       R"(recovery.slots.replayed=0)",
       R"(recovery.slots.skipped=3)",
       R"(recovery.task.deadline_exceeded=0)",
       R"(recovery.task.failures=0)",
       R"(recovery.task.retries=0)",
       R"(shard.leases.claimed=3)",
       R"(shard.leases.expired=0)",
       R"(shard.leases.stolen=0)",
       R"(profile shard.gather=3)",
       R"(shard.lease shard {"stage":"pin","lo":0,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":0,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":1,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":1,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":2,"len":1,"stolen":0})",
       R"(journal.stage recovery {"stage":"pin","replayed":0,"executed":3,"skipped":3})",
       R"(journal.interrupt recovery {"stage":"pin"})"},
      // 2-worker shard, worker 1
      {R"(applied 0=v0;1=v1;2=v2;3=v3;4=v4;5=__task_failure=1;)",
       R"(recovery.slots.executed=3)",
       R"(recovery.slots.replayed=3)",
       R"(recovery.slots.skipped=0)",
       R"(recovery.task.deadline_exceeded=0)",
       R"(recovery.task.failures=1)",
       R"(recovery.task.retries=2)",
       R"(shard.leases.claimed=3)",
       R"(shard.leases.expired=0)",
       R"(shard.leases.stolen=0)",
       R"(profile shard.gather=3)",
       R"(shard.lease shard {"stage":"pin","lo":3,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":3,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":4,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":4,"len":1})",
       R"(shard.lease shard {"stage":"pin","lo":5,"len":1,"stolen":0})",
       R"(shard.range.done shard {"stage":"pin","lo":5,"len":1})",
       R"(journal.stage recovery {"stage":"pin","replayed":3,"executed":3,"skipped":0})"},
  };
  ASSERT_EQ(got.size(), pins.size());
  for (std::size_t k = 0; k < pins.size(); ++k)
    EXPECT_EQ(got[k], pins[k]) << "observation " << k;
}

// --- kill-and-resume determinism for every sweep driver ---------------------
//
// run_to_completion() hard-interrupts the driver after `stop_after`
// checkpoints, then resumes from the journal — repeatedly, until a round
// finishes uninterrupted — and returns that final result. The byte-identity
// contract says it must equal the plain serial run for any job count and
// any interruption cadence.

// One driver run against the journal at `path` (created on round 0,
// resumed after), with `stop_after` as the supervisor's hard checkpoint cap
// (-1: none). Sets *interrupted when the cap (or a refused append) stopped
// the run.
template <typename Result>
Result journal_round(const std::string& path, int round,
                     std::int64_t stop_after,
                     const std::function<Result()>& run, bool* interrupted) {
  std::string error;
  auto journal =
      round == 0
          ? recovery::RunJournal::create(path, "recovery_test", 99, &error)
          : recovery::RunJournal::open_resume(path, &error);
  if (!journal) {
    ADD_FAILURE() << "round " << round << ": " << error;
    *interrupted = false;
    return Result{};
  }
  journal->set_fsync(false);
  recovery::Supervisor sup(std::move(journal), {});
  sup.set_stop_after(stop_after);
  recovery::Supervisor* prev = recovery::Supervisor::install(&sup);
  Result result = run();
  recovery::Supervisor::install(prev);
  *interrupted = sup.interrupted();
  return result;
}

template <typename Result>
Result run_to_completion(const std::string& name, std::int64_t stop_after,
                         const std::function<Result()>& run,
                         int* interrupted_rounds = nullptr) {
  const std::string path = temp_path(name);
  std::remove(path.c_str());
  for (int round = 0; round < 500; ++round) {
    bool interrupted = false;
    Result result = journal_round(path, round, stop_after, run, &interrupted);
    if (!interrupted) {
      if (interrupted_rounds) *interrupted_rounds = round;
      std::remove(path.c_str());
      return result;
    }
  }
  ADD_FAILURE() << name << " never completed";
  std::remove(path.c_str());
  return Result{};
}

// Kills the driver once, exactly at checkpoint `kill_at` (append kill_at+1
// is refused, as if the process died there; 0 kills before the first
// checkpoint), reports how many records the journal holds at that point,
// then resumes without a cap until a round completes.
template <typename Result>
Result kill_once_then_resume(const std::string& name, std::int64_t kill_at,
                             const std::function<Result()>& run,
                             std::size_t* records_at_kill) {
  const std::string path = temp_path(name);
  std::remove(path.c_str());
  bool interrupted = false;
  Result result = journal_round(path, 0, kill_at, run, &interrupted);
  *records_at_kill = recovery::read_journal_snapshot(path).records.size();
  for (int round = 1; interrupted && round < 50; ++round)
    result = journal_round(path, round, -1, run, &interrupted);
  EXPECT_FALSE(interrupted) << name << " never completed";
  std::remove(path.c_str());
  return result;
}

// Every worst-case family — the semi-synchronous ones, and the sporadic
// and asynchronous ones whose members run verdict-only with the largest
// traces avoided — killed at every checkpoint N from 0 to the family size
// (once, then resumed; and at a cadence of every N checkpoints), at several
// job counts, reproduces the uninterrupted serial report exactly. The
// journal at the kill point holds exactly min(N, family size) records.
TEST(KillResumeTest, WorstCaseFamiliesAreByteIdentical) {
  const ProblemSpec spec{2, 3, 2};
  SemiSyncMpmFactory semisync_mpm;
  SporadicMpmFactory sporadic_mpm;
  AsyncMpmFactory async_mpm;
  SemiSyncSmmFactory semisync_smm;
  AsyncSmmFactory async_smm;
  const auto semisync = TimingConstraints::semi_synchronous(
      Duration(1), Duration(2), Duration(3));
  const auto sporadic =
      TimingConstraints::sporadic(Duration(1), Duration(1), Duration(3));
  const auto async = TimingConstraints::asynchronous(Duration(2), Duration(3));

  struct Family {
    std::string name;
    std::function<WorstCase()> run;
  };
  const Family families[] = {
      {"mpm/semisync",
       [&] { return mpm_worst_case(spec, semisync, semisync_mpm, 4); }},
      {"smm/semisync",
       [&] { return smm_worst_case(spec, semisync, semisync_smm, 4); }},
      {"mpm/sporadic",
       [&] { return mpm_worst_case(spec, sporadic, sporadic_mpm, 4); }},
      {"smm/sporadic",
       [&] { return smm_worst_case(spec, sporadic, async_smm, 4); }},
      {"mpm/async", [&] { return mpm_worst_case(spec, async, async_mpm, 4); }},
      {"smm/async", [&] { return smm_worst_case(spec, async, async_smm, 4); }},
  };

  for (const Family& family : families) {
    WorstCase reference;
    {
      JobsGuard serial(1);
      reference = family.run();
    }
    ASSERT_GT(reference.runs, 0) << family.name;
    for (const int jobs : {1, 2, 8}) {
      JobsGuard guard(jobs);
      for (std::int64_t n = 0; n <= reference.runs; ++n) {
        const std::string where = family.name + " jobs=" +
                                  std::to_string(jobs) +
                                  " N=" + std::to_string(n);
        std::size_t records = 0;
        EXPECT_EQ(kill_once_then_resume<WorstCase>("kr_worst.journal", n,
                                                   family.run, &records),
                  reference)
            << where;
        EXPECT_EQ(records,
                  static_cast<std::size_t>(
                      std::min<std::int64_t>(n, reference.runs)))
            << where;
        if (n == 0) continue;  // a cadence of 0 never progresses
        int rounds = 0;
        EXPECT_EQ(run_to_completion<WorstCase>("kr_worst.journal", n,
                                               family.run, &rounds),
                  reference)
            << where;
        EXPECT_GT(rounds, 0) << where << ": interruption hook never fired";
      }
    }
  }
}

TEST(KillResumeTest, DegradationGridIsByteIdentical) {
  const ProblemSpec spec{2, 3, 2};
  const auto constraints = TimingConstraints::semi_synchronous(
      Duration(1), Duration(2), Duration(3));
  SemiSyncMpmFactory factory;

  JobsGuard serial(1);
  const DegradationReport reference =
      mpm_degradation(spec, constraints, factory);
  ASSERT_FALSE(reference.cells.empty());

  for (const int jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(run_to_completion<DegradationReport>(
                  "kr_degradation.journal", 2,
                  [&] { return mpm_degradation(spec, constraints, factory); }),
              reference)
        << "jobs=" << jobs;
  }
}

TEST(KillResumeTest, ChaosSweepDigestIsByteIdentical) {
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

  for (const int jobs : {1, 2, 8}) {
    JobsGuard guard(jobs);
    EXPECT_EQ(run_to_completion<ChaosReport>(
                  "kr_chaos.journal", 3,
                  [&] {
                    return mpm_chaos_sweep(spec, constraints, factory, 16,
                                           0xC4A05ULL, limits);
                  }),
              reference)
        << "jobs=" << jobs;
  }
}

TEST(KillResumeTest, ExhaustiveEnumerationIsByteIdentical) {
  const ProblemSpec spec{2, 2, 2};
  const auto constraints =
      TimingConstraints::sporadic(Duration(1), Duration(0), Duration(2));
  SporadicMpmFactory factory;
  const std::vector<Duration> gaps{Duration(1), Duration(2)};
  const std::vector<Duration> delays{Duration(0), Duration(1), Duration(2)};

  // Both a complete walk and a budget-truncated one: the truncation point
  // reconstructs the serial order, so it must survive interruption too.
  for (const std::int64_t budget : {500'000, 50}) {
    JobsGuard serial(1);
    const ExhaustiveResult reference =
        explore_mpm(spec, constraints, factory, gaps, delays, budget);
    for (const int jobs : {1, 2, 8}) {
      JobsGuard guard(jobs);
      EXPECT_EQ(run_to_completion<ExhaustiveResult>(
                    "kr_exhaustive.journal", 2,
                    [&] {
                      return explore_mpm(spec, constraints, factory, gaps,
                                         delays, budget);
                    }),
                reference)
          << "jobs=" << jobs << " budget=" << budget;
    }
  }
}

TEST(KillResumeTest, ConformanceCampaignIsByteIdentical) {
  conformance::ConformanceConfig config;
  config.cases_per_cell = 5;
  config.seed = 11;
  config.minimize = false;

  JobsGuard serial(1);
  config.jobs = 1;
  const conformance::ConformanceReport reference =
      conformance::run_conformance(config);
  ASSERT_GT(reference.total_cases, 0);

  for (const int jobs : {1, 2, 8}) {
    config.jobs = jobs;
    const conformance::ConformanceReport got =
        run_to_completion<conformance::ConformanceReport>(
            "kr_conformance.journal", 4,
            [&] { return conformance::run_conformance(config); });
    EXPECT_EQ(got.digest, reference.digest) << "jobs=" << jobs;
    EXPECT_EQ(got.summary(), reference.summary()) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace sesp
