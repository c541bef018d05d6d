#include "recovery/supervisor.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include <sstream>

#include "exec/thread_pool.hpp"
#include "obs/observer.hpp"
#include "recovery/payload.hpp"
#include "shard/shard.hpp"

namespace sesp::recovery {

namespace {

// Async-signal-safe stop flag shared by the handlers and interrupted();
// the handler may run on any thread at any point, so it touches nothing
// but this.
volatile std::sig_atomic_t g_signal_stop = 0;

void signal_handler(int) { g_signal_stop = 1; }

Supervisor* g_current = nullptr;

std::int64_t stop_after_from_env() {
  const char* env = std::getenv("SESP_STOP_AFTER");
  if (!env || !*env) return -1;
  char* end = nullptr;
  const long long n = std::strtoll(env, &end, 10);
  return (end && *end == '\0' && n >= 0) ? n : -1;
}

constexpr char kFailureMarker[] = "__task_failure";

}  // namespace

std::string TaskFailure::to_string() const {
  const char* what = kind == Kind::kDeadline ? "deadline" : "exception";
  return std::string("task failure (") + what + ", " +
         std::to_string(attempts) +
         (attempts == 1 ? " attempt): " : " attempts): ") + detail;
}

std::string encode_task_failure(const TaskFailure& failure) {
  PayloadWriter w;
  w.put_bool(kFailureMarker, true);
  w.put(
      "kind",
      failure.kind == TaskFailure::Kind::kDeadline ? "deadline" : "exception");
  w.put_int("attempts", failure.attempts);
  w.put("detail", failure.detail);
  return w.str();
}

std::optional<TaskFailure> decode_task_failure(std::string_view payload) {
  // Cheap reject before the full parse: ordinary payloads never start with
  // the reserved marker key.
  if (payload.rfind(kFailureMarker, 0) != 0) return std::nullopt;
  const PayloadReader r(payload);
  if (!r.get_bool(kFailureMarker, false)) return std::nullopt;
  TaskFailure f;
  f.kind = r.get("kind") == "deadline" ? TaskFailure::Kind::kDeadline
                                       : TaskFailure::Kind::kException;
  f.attempts = static_cast<std::int32_t>(r.get_int("attempts", 1));
  f.detail = r.get("detail");
  return f;
}

Supervisor::Supervisor(std::unique_ptr<RunJournal> journal, TaskPolicy policy)
    : journal_(std::move(journal)), policy_(policy) {
  stop_after_ = stop_after_from_env();
}

Supervisor::~Supervisor() {
  if (handlers_installed_) {
    std::signal(SIGINT, saved_sigint_);
    std::signal(SIGTERM, saved_sigterm_);
  }
  if (g_current == this) g_current = nullptr;
}

Supervisor* Supervisor::install(Supervisor* supervisor) noexcept {
  Supervisor* previous = g_current;
  g_current = supervisor;
  return previous;
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.slots_replayed = slots_replayed_.load();
  s.slots_executed = slots_executed_.load();
  s.slots_skipped = slots_skipped_.load();
  s.retries = retries_.load();
  s.deadline_exceeded = deadline_exceeded_.load();
  s.failures = failures_.load();
  return s;
}

void Supervisor::install_signal_handlers() {
  if (handlers_installed_) return;
  g_signal_stop = 0;
  saved_sigint_ = std::signal(SIGINT, signal_handler);
  saved_sigterm_ = std::signal(SIGTERM, signal_handler);
  handlers_installed_ = true;
}

bool Supervisor::interrupted() const noexcept {
  return stop_.load() || g_signal_stop != 0;
}

std::string Supervisor::unique_stage(const std::string& name) {
  // Journal frames are space-delimited; stage identifiers come from the
  // drivers and never contain whitespace, but normalize defensively.
  std::string clean = name;
  for (char& c : clean)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  const int use = ++stage_uses_[clean];
  return use == 1 ? clean : clean + "#" + std::to_string(use);
}

std::int64_t retry_backoff_ms(const TaskPolicy& policy,
                              std::uint64_t config_digest, std::size_t slot,
                              std::int32_t attempt) {
  if (attempt <= 1) return 0;
  std::int64_t base = policy.backoff_ms;
  for (std::int32_t i = 2; i < attempt; ++i) base *= 2;
  if (base > 1000) base = 1000;
  if (base <= 0) return 0;
  std::ostringstream os;
  os << fnv1a_hex(config_digest) << '|' << slot << '|' << attempt;
  const std::uint64_t jitter =
      fnv1a(os.str()) % (static_cast<std::uint64_t>(base) / 4 + 1);
  return base + static_cast<std::int64_t>(jitter);
}

std::string Supervisor::run_attempts(
    std::size_t slot,
    const std::function<std::string(std::size_t)>& compute) {
  const std::int32_t max_attempts =
      1 + (policy_.max_retries > 0 ? policy_.max_retries : 0);
  TaskFailure failure;
  failure.attempts = max_attempts;
  for (std::int32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      retries_.fetch_add(1);
      const std::int64_t backoff = retry_backoff_ms(
          policy_, journal_ ? journal_->config_digest() : 0, slot, attempt);
      if (backoff > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    const auto start = std::chrono::steady_clock::now();
    try {
      std::string payload = compute(slot);
      if (policy_.deadline_seconds > 0.0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (elapsed > policy_.deadline_seconds) {
          deadline_exceeded_.fetch_add(1);
          failure.kind = TaskFailure::Kind::kDeadline;
          failure.detail = "slot " + std::to_string(slot) + " took " +
                           std::to_string(elapsed) + "s (deadline " +
                           std::to_string(policy_.deadline_seconds) + "s)";
          continue;
        }
      }
      return payload;
    } catch (const std::exception& e) {
      failure.kind = TaskFailure::Kind::kException;
      failure.detail = e.what();
    } catch (...) {
      failure.kind = TaskFailure::Kind::kException;
      failure.detail = "non-standard exception";
    }
  }
  failures_.fetch_add(1);
  return encode_task_failure(failure);
}

bool Supervisor::journal_payload(const std::string& stage, std::size_t slot,
                                 const std::string& payload) {
  if (!journal_ || journal_broken_) return true;
  // The stop-after cap is hard: each append first claims a ticket, and a
  // ticket past the cap is refused before anything is written, as if the
  // process had died right there. Tasks still in flight on other threads
  // therefore never grow the journal past the kill point at any --jobs.
  const std::int64_t ticket = appends_.fetch_add(1) + 1;
  if (stop_after_ >= 0 && ticket > stop_after_) {
    request_stop();
    return false;
  }
  if (!journal_->append(stage, slot, payload)) {
    journal_broken_ = true;
    std::fprintf(stderr,
                 "warning: journal append failed at %s; "
                 "continuing without checkpoints\n",
                 journal_->path().c_str());
    return true;
  }
  if (stop_after_ >= 0 && ticket >= stop_after_) request_stop();
  return true;
}

void Supervisor::for_each_slot(
    const std::string& stage_name, std::size_t count,
    const std::function<std::string(std::size_t)>& compute,
    const std::function<void(std::size_t, const std::string&)>& apply,
    obs::Observer* o, int jobs) {
  const std::string stage = unique_stage(stage_name);

  // Replay phase (serial): slots in our own journal recover their stored
  // payloads — a resumed run, or a restarted shard worker, recomputes none
  // of them; a shard worker's peers' checkpoints arrive via gather below.
  // Nothing is applied yet: application happens in one pass, in global slot
  // order, after the last compute barrier, so journaled and fresh slots
  // fold in exactly the order an uninterrupted run's do.
  std::vector<std::optional<std::string>> payloads(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string* stored =
        journal_ ? journal_->lookup(stage, i) : nullptr;
    if (stored) payloads[i].emplace(*stored);
  }
  const auto missing_count = [&payloads] {
    std::int64_t m = 0;
    for (const auto& p : payloads)
      if (!p) ++m;
    return m;
  };

  const std::int64_t retries_before = retries_.load();
  const std::int64_t deadline_before = deadline_exceeded_.load();
  const std::int64_t failures_before = failures_.load();
  const std::int64_t claimed_before = shard_ ? shard_->leases_claimed() : 0;
  const std::int64_t stolen_before = shard_ ? shard_->leases_stolen() : 0;
  const std::int64_t expired_before =
      shard_ ? shard_->leases_expired_seen() : 0;

  // Compute phase, one slot range per round. Unsharded, the one round takes
  // [0, count). A shard worker gathers peer checkpoints, leases a range with
  // missing slots (stealing expired leases), and marks it done; when
  // nothing is claimable it polls until the live leaseholder either
  // finishes (its records appear in gather) or expires (we steal). Either
  // way the loop ends with the full payload set, so every shard worker
  // applies — and prints — the complete canonical report. Each computed
  // payload is journaled before the barrier, so an interrupt (or crash)
  // after that never loses it.
  std::int64_t executed = 0;
  while (!interrupted() && missing_count() > 0) {
    std::optional<shard::ShardContext::Acquired> range;
    if (shard_) {
      {
        obs::ProfileScope gather_scope(o ? o->profiler : nullptr,
                                       obs::ProfilePhase::kShardGather);
        shard_->gather_peers(stage, &payloads);
      }
      if (missing_count() == 0) break;
      range = shard_->acquire_range(stage, count, shard::shard_chunk(count),
                                    payloads, journal_.get());
      if (!range) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(shard_->options().poll_ms));
        continue;
      }
      if (o && o->trace)
        o->trace->instant(
            "shard.lease", "shard",
            obs::args_object(
                {obs::arg_str("stage", stage),
                 obs::arg_int("lo", static_cast<std::int64_t>(range->lo)),
                 obs::arg_int("len", static_cast<std::int64_t>(range->hi -
                                                               range->lo)),
                 obs::arg_int("stolen", range->stolen ? 1 : 0)}));
      shard_->start_heartbeat(*range);
    }

    std::vector<std::size_t> pending;
    for (std::size_t slot = range ? range->lo : 0,
                     hi = range ? range->hi : count;
         slot < hi; ++slot)
      if (!payloads[slot]) pending.push_back(slot);
    exec::parallel_for_each(
        pending.size(),
        [&](std::size_t k) {
          const std::size_t slot = pending[k];
          if (interrupted()) return;
          std::string payload = run_attempts(slot, compute);
          if (journal_payload(stage, slot, payload))
            payloads[slot].emplace(std::move(payload));
        },
        jobs);
    bool complete = true;
    for (const std::size_t slot : pending) {
      if (payloads[slot]) ++executed;
      else complete = false;
    }
    if (!range) break;

    shard_->stop_heartbeat();
    if (o && o->trace) {
      // The heartbeat thread only records wall-clock stamps (the sink is
      // single-writer); flush them as instants now that it has joined.
      for (const std::int64_t renew_ms : shard_->take_renewals())
        o->trace->instant_at(
            o->trace->ns_for_unix_ms(renew_ms), "shard.lease.renew", "shard",
            obs::args_object(
                {obs::arg_str("stage", stage),
                 obs::arg_int("lo", static_cast<std::int64_t>(range->lo))}));
    }
    if (complete && !interrupted()) {
      shard_->complete_range(stage, *range, journal_.get());
      if (o && o->trace)
        o->trace->instant(
            "shard.range.done", "shard",
            obs::args_object(
                {obs::arg_str("stage", stage),
                 obs::arg_int("lo", static_cast<std::int64_t>(range->lo)),
                 obs::arg_int("len", static_cast<std::int64_t>(range->hi -
                                                               range->lo))}));
    }
  }

  // Apply phase (serial, global slot order): decoded state lands
  // identically for every job count, worker count and interrupt/resume
  // history.
  for (std::size_t i = 0; i < count; ++i)
    if (payloads[i]) apply(i, *payloads[i]);

  const std::int64_t skipped = missing_count();
  const std::int64_t replayed =
      static_cast<std::int64_t>(count) - executed - skipped;
  slots_replayed_.fetch_add(replayed);
  slots_executed_.fetch_add(executed);
  slots_skipped_.fetch_add(skipped);

  // Observability from the driving thread only (the shard rules of
  // docs/observability.md), into the caller's observer: per-stage counters
  // plus a journal.stage instant; journal.interrupt marks a drained stop.
  if (o && o->metrics) {
    o->metrics->counter("recovery.slots.replayed").inc(replayed);
    o->metrics->counter("recovery.slots.executed").inc(executed);
    o->metrics->counter("recovery.slots.skipped").inc(skipped);
    o->metrics->counter("recovery.task.retries")
        .inc(retries_.load() - retries_before);
    o->metrics->counter("recovery.task.deadline_exceeded")
        .inc(deadline_exceeded_.load() - deadline_before);
    o->metrics->counter("recovery.task.failures")
        .inc(failures_.load() - failures_before);
    if (shard_) {
      o->metrics->counter("shard.leases.claimed")
          .inc(shard_->leases_claimed() - claimed_before);
      o->metrics->counter("shard.leases.stolen")
          .inc(shard_->leases_stolen() - stolen_before);
      o->metrics->counter("shard.leases.expired")
          .inc(shard_->leases_expired_seen() - expired_before);
    }
  }
  if (o && o->trace) {
    o->trace->instant("journal.stage", "recovery",
                      obs::args_object(
                          {obs::arg_str("stage", stage),
                           obs::arg_int("replayed", replayed),
                           obs::arg_int("executed", executed),
                           obs::arg_int("skipped", skipped)}));
    if (interrupted())
      o->trace->instant("journal.interrupt", "recovery",
                        obs::args_object({obs::arg_str("stage", stage)}));
  }
}

Supervisor* current_for_sweep() noexcept {
  return exec::inside_pool_worker() ? nullptr : g_current;
}

void supervised_sweep(
    const std::string& stage_name, std::size_t count,
    const std::function<std::string(std::size_t)>& compute,
    const std::function<void(std::size_t, const std::string&)>& apply,
    obs::Observer* observer, int jobs) {
  if (Supervisor* sup = current_for_sweep()) {
    sup->for_each_slot(stage_name, count, compute, apply, observer, jobs);
    return;
  }
  std::vector<std::string> payloads(count);
  exec::parallel_for_each(
      count, [&](std::size_t i) { payloads[i] = compute(i); }, jobs);
  for (std::size_t i = 0; i < count; ++i) apply(i, payloads[i]);
}

bool run_interrupted() noexcept {
  return g_current != nullptr && g_current->interrupted();
}

}  // namespace sesp::recovery
