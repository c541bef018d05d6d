#include "shard/shard.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "recovery/supervisor.hpp"
#include "shard/lease.hpp"

namespace sesp::shard {

namespace {

constexpr char kManifestSchema[] = "sesp-shard/1";

bool write_file_excl(const std::string& path, const std::string& text) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  return true;
}

bool make_dir(const std::string& path, std::string* error) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  if (error) *error = "cannot create directory " + path;
  return false;
}

// A TaskFailure payload loses to a successful payload from any peer; the
// cheap-reject in decode_task_failure makes this a prefix check.
bool is_failure_payload(const std::string& payload) {
  return recovery::decode_task_failure(payload).has_value();
}

std::optional<std::int32_t> worker_id_from_name(const std::string& name) {
  if (name.rfind("worker-", 0) != 0) return std::nullopt;
  const std::string suffix = ".journal";
  if (name.size() <= 7 + suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return std::nullopt;
  const std::string digits = name.substr(7, name.size() - 7 - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::int32_t id = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + (c - '0');
  }
  return id;
}

}  // namespace

std::uint64_t shard_chunk(std::uint64_t count) {
  const std::uint64_t chunk = (count + 63) / 64;
  return chunk < 1 ? 1 : chunk;
}

bool ensure_shard_dir(const std::string& dir, std::string* error) {
  return make_dir(dir, error) && make_dir(dir + "/claims", error);
}

bool read_manifest(const std::string& dir, std::string* tool,
                   std::uint64_t* config_digest, std::string* error) {
  const std::string path = dir + "/MANIFEST";
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string schema, tool_kv, config_kv;
  in >> schema >> tool_kv >> config_kv;
  if (schema != kManifestSchema || tool_kv.rfind("tool=", 0) != 0 ||
      config_kv.rfind("config=", 0) != 0) {
    if (error)
      *error = path + ": bad manifest (want " + kManifestSchema + ")";
    return false;
  }
  // The config digest reuses the journal header syntax; round-trip it
  // through the header parser to share the hex validation.
  std::string header = std::string("sesp-journal/1 ") + tool_kv + ' ' +
                       config_kv;
  std::string parsed_tool;
  std::uint64_t parsed_digest = 0;
  std::string header_error;
  if (!recovery::parse_journal_header(header, &parsed_tool, &parsed_digest,
                                      &header_error)) {
    if (error) *error = path + ": " + header_error;
    return false;
  }
  if (tool) *tool = parsed_tool;
  if (config_digest) *config_digest = parsed_digest;
  return true;
}

bool ensure_manifest(const std::string& dir, const std::string& tool,
                     std::uint64_t config_digest, std::string* error) {
  const std::string path = dir + "/MANIFEST";
  std::ostringstream os;
  os << kManifestSchema << " tool=" << tool
     << " config=" << recovery::fnv1a_hex(config_digest) << '\n';
  if (write_file_excl(path, os.str())) return true;
  std::string existing_tool;
  std::uint64_t existing_digest = 0;
  if (!read_manifest(dir, &existing_tool, &existing_digest, error))
    return false;
  if (existing_tool != tool || existing_digest != config_digest) {
    if (error)
      *error = dir + " belongs to a different " +
               (existing_tool != tool ? "tool" : "configuration") +
               " (manifest " + existing_tool + '/' +
               recovery::fnv1a_hex(existing_digest) + ", this run " + tool +
               '/' + recovery::fnv1a_hex(config_digest) + ")";
    return false;
  }
  return true;
}

std::vector<std::string> list_worker_journals(const std::string& dir) {
  std::vector<std::pair<std::int32_t, std::string>> found;
  DIR* d = ::opendir(dir.c_str());
  if (!d) return {};
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (const auto id = worker_id_from_name(name))
      found.emplace_back(*id, dir + "/" + name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [id, path] : found) paths.push_back(std::move(path));
  return paths;
}

// Incremental read state for one peer journal: `buf` holds bytes read from
// the file but not yet consumed as complete frames (a frame mid-append by
// a live peer completes on a later gather).
struct ShardContext::PeerFile {
  std::string path;
  std::uintmax_t read_to = 0;
  std::string buf;
  bool header_skipped = false;
};

struct ShardContext::Heartbeat {
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  // Unix-ms stamps of each renewal, appended under mu by the heartbeat
  // thread. Read via take_renewals() only after stop_heartbeat() joins.
  std::vector<std::int64_t> renewals;
};

ShardContext::ShardContext(const ShardOptions& opt)
    : opt_(opt), claims_dir_(opt.dir + "/claims") {}

ShardContext::~ShardContext() { stop_heartbeat(); }

std::unique_ptr<ShardContext> ShardContext::open(const ShardOptions& opt,
                                                 std::string* error) {
  if (opt.worker_id < 0) {
    if (error) *error = "shard worker id must be >= 0";
    return nullptr;
  }
  if (opt.lease_ms <= 0) {
    if (error) *error = "shard lease must be positive";
    return nullptr;
  }
  if (!ensure_shard_dir(opt.dir, error)) return nullptr;
  return std::unique_ptr<ShardContext>(new ShardContext(opt));
}

void ShardContext::gather_peers(
    const std::string& stage,
    std::vector<std::optional<std::string>>* payloads) {
  const std::string own =
      "worker-" + std::to_string(opt_.worker_id) + ".journal";
  for (const std::string& path : list_worker_journals(opt_.dir)) {
    if (path.size() >= own.size() &&
        path.compare(path.size() - own.size(), own.size(), own) == 0)
      continue;
    auto& peer = peers_[path];
    if (!peer) {
      peer = std::make_unique<PeerFile>();
      peer->path = path;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    in.seekg(static_cast<std::streamoff>(peer->read_to));
    std::ostringstream fresh;
    fresh << in.rdbuf();
    const std::string appended = fresh.str();
    peer->read_to += appended.size();
    peer->buf += appended;
    if (!peer->header_skipped) {
      const std::size_t nl = peer->buf.find('\n');
      if (nl == std::string::npos) continue;
      peer->buf.erase(0, nl + 1);
      peer->header_skipped = true;
    }
    std::vector<recovery::JournalRecord> records;
    const std::size_t consumed = recovery::parse_journal_frames(
        peer->buf, 0, &records, nullptr, nullptr);
    peer->buf.erase(0, consumed);
    for (recovery::JournalRecord& r : records) {
      const auto key = std::make_pair(std::move(r.stage), r.slot);
      const auto it = gathered_.find(key);
      if (it == gathered_.end())
        gathered_.emplace(key, std::move(r.payload));
      else if (is_failure_payload(it->second) &&
               !is_failure_payload(r.payload))
        it->second = std::move(r.payload);
    }
  }
  for (std::size_t slot = 0; slot < payloads->size(); ++slot) {
    auto& entry = (*payloads)[slot];
    const auto it = gathered_.find({stage, slot});
    if (it == gathered_.end()) continue;
    if (!entry || (is_failure_payload(*entry) &&
                   !is_failure_payload(it->second)))
      entry.emplace(it->second);
  }
}

std::optional<ShardContext::Acquired> ShardContext::acquire_range(
    const std::string& stage, std::uint64_t count, std::uint64_t chunk,
    const std::vector<std::optional<std::string>>& payloads,
    recovery::RunJournal* journal) {
  if (count == 0) return std::nullopt;
  const std::uint64_t ranges = (count + chunk - 1) / chunk;
  for (std::uint64_t r = 0; r < ranges; ++r) {
    const std::uint64_t lo = r * chunk;
    const std::uint64_t hi = std::min(lo + chunk, count);
    bool missing = false;
    for (std::uint64_t slot = lo; slot < hi && !missing; ++slot)
      missing = !payloads[slot].has_value();
    if (!missing) continue;

    const std::int64_t now = unix_ms_now();
    const std::int64_t deadline = now + opt_.lease_ms;
    ClaimState state = read_claim(claims_dir_, stage, lo);
    Acquired out{lo, hi, "", false};
    if (!state.exists()) {
      if (create_claim(claims_dir_, stage, lo, hi - lo, 1, opt_.worker_id,
                       deadline, &out.claim_path)) {
        ++claimed_;
        if (journal)
          journal->append_lease(
              {opt_.worker_id, stage, lo, hi - lo, deadline, "claim"});
        return out;
      }
      state = read_claim(claims_dir_, stage, lo);  // lost the create race
    }
    if (state.exists() && state.expired(now)) {
      ++expired_;
      if (create_claim(claims_dir_, stage, lo, hi - lo, state.gen + 1,
                       opt_.worker_id, deadline, &out.claim_path)) {
        ++stolen_;
        out.stolen = true;
        if (journal)
          journal->append_lease(
              {opt_.worker_id, stage, lo, hi - lo, deadline, "steal"});
        return out;
      }
    }
    // Held by a live lease (or a racing claimer/stealer just beat us): try
    // the next range.
  }
  return std::nullopt;
}

void ShardContext::start_heartbeat(const Acquired& range) {
  stop_heartbeat();
  heartbeat_ = std::make_unique<Heartbeat>();
  Heartbeat* hb = heartbeat_.get();
  const std::string path = range.claim_path;
  const std::int32_t worker = opt_.worker_id;
  const std::uint64_t lo = range.lo;
  const std::uint64_t len = range.hi - range.lo;
  const std::int64_t lease = opt_.lease_ms;
  const std::int64_t interval = std::max<std::int64_t>(lease / 3, 1);
  hb->thread = std::thread([hb, path, worker, lo, len, lease, interval] {
    std::unique_lock<std::mutex> lk(hb->mu);
    while (!hb->stop) {
      hb->cv.wait_for(lk, std::chrono::milliseconds(interval));
      if (hb->stop) break;
      const std::int64_t now = unix_ms_now();
      rewrite_claim(path, worker, lo, len, now + lease, false);
      hb->renewals.push_back(now);
    }
  });
}

void ShardContext::stop_heartbeat() {
  if (!heartbeat_) return;
  {
    std::lock_guard<std::mutex> lk(heartbeat_->mu);
    heartbeat_->stop = true;
  }
  heartbeat_->cv.notify_all();
  heartbeat_->thread.join();
  renewals_.insert(renewals_.end(), heartbeat_->renewals.begin(),
                   heartbeat_->renewals.end());
  heartbeat_.reset();
}

std::vector<std::int64_t> ShardContext::take_renewals() {
  std::vector<std::int64_t> out;
  out.swap(renewals_);
  return out;
}

void ShardContext::complete_range(const std::string& stage,
                                  const Acquired& range,
                                  recovery::RunJournal* journal) {
  // done=1 with a fresh deadline: a completed range is normally never
  // revisited (its slots are all journaled), but if this worker's journal
  // write had failed the deadline still lets peers steal and recompute.
  rewrite_claim(range.claim_path, opt_.worker_id, range.lo,
                range.hi - range.lo, unix_ms_now() + opt_.lease_ms, true);
  if (journal)
    journal->append_lease({opt_.worker_id, stage, range.lo,
                           range.hi - range.lo, 0, "done"});
}

MergeStats merge_shard_dir(const std::string& dir, std::string out_path) {
  MergeStats stats;
  if (out_path.empty()) out_path = dir + "/merged.journal";
  stats.out_path = out_path;

  std::string tool;
  std::uint64_t config_digest = 0;
  std::string manifest_error;
  const bool have_manifest =
      read_manifest(dir, &tool, &config_digest, &manifest_error);

  const std::vector<std::string> journals = list_worker_journals(dir);
  if (journals.empty()) {
    stats.error = "no worker journals in " + dir;
    return stats;
  }

  std::map<std::pair<std::string, std::uint64_t>, std::string> best;
  for (const std::string& path : journals) {
    recovery::JournalSnapshot snap = recovery::read_journal_snapshot(path);
    if (!snap.ok) {
      stats.error = snap.error;
      return stats;
    }
    if (!have_manifest && stats.workers == 0) {
      tool = snap.tool;
      config_digest = snap.config_digest;
    }
    if (snap.tool != tool || snap.config_digest != config_digest) {
      stats.error = path + " belongs to " + snap.tool + '/' +
                    recovery::fnv1a_hex(snap.config_digest) +
                    ", expected " + tool + '/' +
                    recovery::fnv1a_hex(config_digest);
      return stats;
    }
    ++stats.workers;
    stats.torn_dropped += snap.dropped;
    stats.lease_events += static_cast<std::int64_t>(snap.leases.size());
    for (const recovery::LeaseRecord& lease : snap.leases)
      if (lease.event == "done") ++stats.ranges_done;
    for (recovery::JournalRecord& r : snap.records) {
      const auto key = std::make_pair(std::move(r.stage), r.slot);
      const auto it = best.find(key);
      if (it == best.end()) {
        best.emplace(key, std::move(r.payload));
      } else {
        ++stats.duplicates;
        if (is_failure_payload(it->second) && !is_failure_payload(r.payload))
          it->second = std::move(r.payload);
      }
    }
  }

  std::string create_error;
  auto merged = recovery::RunJournal::create(out_path, tool, config_digest,
                                             &create_error);
  if (!merged) {
    stats.error = create_error;
    return stats;
  }
  // One fsync for the whole merge; per-record syncs would dominate.
  merged->set_fsync(false);
  for (const auto& [key, payload] : best) {
    if (!merged->append(key.first, key.second, payload)) {
      stats.error = "cannot append to " + out_path;
      return stats;
    }
  }
  merged->sync();
  stats.records = static_cast<std::int64_t>(best.size());
  stats.ok = true;
  return stats;
}

}  // namespace sesp::shard
