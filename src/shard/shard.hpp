#pragma once

// Sharded sweep execution (docs/robustness.md "Sharded execution"): N
// independent OS processes cooperatively execute one supervised sweep
// through a shared journal directory. The layout of <shard-dir>:
//
//   MANIFEST               sesp-shard/1 tool=<name> config=<hex16>
//   claims/                O_EXCL claim files (shard/lease.hpp)
//   worker-<id>.journal    each worker's sesp-journal/1 stream
//   worker-<id>.log        each worker's redirected stdout+stderr
//   merged.journal         canonical slot-ordered merge (the coordinator's
//                          resume input)
//
// The design is communication-closed: workers never talk to each other —
// they lease disjoint slot ranges through the claims directory, checkpoint
// every computed slot into their own journal, and read peers' journals
// only between rounds. A worker that dies mid-range leaves an expiring
// lease and a torn journal tail; any live worker reclaims the range (work
// stealing) and the torn tail is dropped by the ordinary journal loader.
// Because slot payloads are deterministic, duplicated work folds to
// identical bytes, so the merged report is byte-identical at any worker
// count, any --jobs, any kill schedule.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "recovery/journal.hpp"

namespace sesp::shard {

struct ShardOptions {
  std::string dir;            // the shared shard directory
  std::int32_t worker_id = -1;
  std::int64_t lease_ms = 10'000;  // lease length; renewed every third
  std::int64_t poll_ms = 25;       // wait between rounds when blocked
};

// Ranges per stage are fixed-size chunks of the slot index space,
// independent of worker count (so any number of workers — including a
// late, restarted, or solo one — agrees on range boundaries): at most 64
// ranges, at least 1 slot each.
std::uint64_t shard_chunk(std::uint64_t count);

// Creates <dir> and <dir>/claims when missing (EEXIST is fine).
bool ensure_shard_dir(const std::string& dir, std::string* error);

// First arriver O_EXCL-writes MANIFEST; everyone else validates it. A
// tool/config mismatch is the shard analogue of resuming the wrong
// journal: false + *error, the worker exits 2 before doing any work.
bool ensure_manifest(const std::string& dir, const std::string& tool,
                     std::uint64_t config_digest, std::string* error);

// Reads MANIFEST into *tool / *config_digest.
bool read_manifest(const std::string& dir, std::string* tool,
                   std::uint64_t* config_digest, std::string* error);

// Per-worker handle on the shared shard directory. All methods are called
// from the sweep's driving thread; the heartbeat runs on its own thread
// and touches nothing but its claim file.
class ShardContext {
 public:
  static std::unique_ptr<ShardContext> open(const ShardOptions& opt,
                                            std::string* error);
  ~ShardContext();

  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;

  const ShardOptions& options() const noexcept { return opt_; }

  // Incrementally reads peers' journals (worker-*.journal except our own)
  // and fills *payloads for every (stage, slot) a peer has checkpointed.
  // A non-failure payload is never replaced; a failure payload is
  // upgraded when a peer retried the slot successfully.
  void gather_peers(const std::string& stage,
                    std::vector<std::optional<std::string>>* payloads);

  struct Acquired {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;  // exclusive
    std::string claim_path;
    bool stolen = false;
  };

  // Tries to lease one range of `chunk` slots that still has missing
  // payloads: an unclaimed range first, else an expired one (stealing).
  // Appends the matching lease record to *journal. nullopt when every
  // incomplete range is held by a live lease — the caller polls and
  // re-gathers.
  std::optional<Acquired> acquire_range(
      const std::string& stage, std::uint64_t count, std::uint64_t chunk,
      const std::vector<std::optional<std::string>>& payloads,
      recovery::RunJournal* journal);

  // Renews the claim's deadline every lease_ms / 3 until stop_heartbeat().
  void start_heartbeat(const Acquired& range);
  void stop_heartbeat();

  // Unix-ms stamps of lease renewals made by heartbeats stopped so far;
  // clears the accumulated list. Safe to call between ranges (the
  // heartbeat thread is joined before its stamps become visible here).
  std::vector<std::int64_t> take_renewals();

  // Marks the claim done and appends the "done" lease record.
  void complete_range(const std::string& stage, const Acquired& range,
                      recovery::RunJournal* journal);

  std::int64_t leases_claimed() const noexcept { return claimed_; }
  std::int64_t leases_stolen() const noexcept { return stolen_; }
  std::int64_t leases_expired_seen() const noexcept { return expired_; }

 private:
  explicit ShardContext(const ShardOptions& opt);

  struct PeerFile;

  ShardOptions opt_;
  std::string claims_dir_;
  // Incremental per-peer read state plus everything gathered so far.
  std::map<std::string, std::unique_ptr<PeerFile>> peers_;
  std::map<std::pair<std::string, std::uint64_t>, std::string> gathered_;
  std::int64_t claimed_ = 0;
  std::int64_t stolen_ = 0;
  std::int64_t expired_ = 0;
  std::vector<std::int64_t> renewals_;

  struct Heartbeat;
  std::unique_ptr<Heartbeat> heartbeat_;
};

// Folds every worker journal in <dir> into out_path (default
// <dir>/merged.journal): slot records deduplicated (non-failure payloads
// win; ties broken by worker id) and rewritten in (stage, slot) order
// under the manifest's header, lease records omitted — so the merged
// bytes are a pure function of the set of computed payloads, independent
// of worker count and kill schedule.
struct MergeStats {
  bool ok = false;
  std::string error;
  std::string out_path;
  std::int64_t workers = 0;
  std::int64_t records = 0;
  std::int64_t duplicates = 0;   // same (stage, slot) in several journals
  std::int64_t lease_events = 0;
  std::int64_t ranges_done = 0;  // "done" lease events across all workers
  std::int64_t torn_dropped = 0;
};

MergeStats merge_shard_dir(const std::string& dir,
                           std::string out_path = std::string());

// The worker journals present in <dir>, sorted by worker id.
std::vector<std::string> list_worker_journals(const std::string& dir);

}  // namespace sesp::shard
