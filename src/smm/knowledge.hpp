#pragma once

// Shared-variable values for the SMM. The paper puts no bound on variable
// size (Section 2.1.1), and every algorithm here only ever communicates
// monotone per-process facts ("p has taken k port steps / reached session v
// / is done"). A Knowledge value is therefore a map from process id to the
// pointwise maximum of those facts; merging is a commutative, idempotent
// join, which is what makes the tree-relay gossip of Section 3 correct
// regardless of interleaving.
//
// Representation (docs/performance.md "SMM knowledge"): a flat vector of
// entries kept sorted by process id — no per-node heap allocation, and a
// copy (the P2P simulator makes one per in-flight message) is one buffer
// copy. Iteration order is ascending process id, exactly the order the
// original std::map representation produced, so digest() and to_string()
// are byte-stable; the golden corpus and the s=n=40 trace pins hold this.
//
// Everything is incremental, so a gossip step costs what it changed:
//
//  * Prefix-state digest. Each entry carries the FNV-1a state after folding
//    it and every entry before it. A mutation only lowers a "clean prefix"
//    mark to the first entry it changed; digest() resumes from the state
//    just before that mark. The state lives inside the entry, so copies
//    gain no extra allocation.
//  * Zero-byte fold. digest() is byte-wise FNV-1a over each field's 8
//    little-endian bytes. XOR with a zero byte is the identity
//    ((h ^ 0) * P == h * P), so a field's run of k zero high bytes folds
//    into one multiply by P^k (mod 2^64, multiplication is associative).
//    Small non-negative fields — almost all of them — cost one or two byte
//    steps plus that multiply instead of eight byte steps; the result is
//    bit-identical to the plain byte loop.
//  * Aligned join. merge() is one two-pointer pass over both sorted runs.
//    When both values hold the same run of ids (the steady state once
//    every port is known) the pointers advance in lockstep, so the pass is
//    a positional join with no id search; new ids are counted and inserted
//    afterwards by an in-place backward merge, with no scratch buffer. The
//    first changed index feeds the clean-prefix mark above.
//  * Snapshot stamp skip. stamp() names a value's content, so a caller can
//    skip a join it has already made: the relay memo in smm_simulator.cpp,
//    and the round-based port algorithm, which re-joins a tree snapshot
//    only when its stamp differs from the last one it merged.

#include <cstdint>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "util/digest.hpp"

namespace sesp {

struct PortInfo {
  std::int64_t steps = 0;    // port steps taken
  std::int64_t session = 0;  // session counter value reached
  bool done = false;         // algorithm-specific completion flag

  friend bool operator==(const PortInfo&, const PortInfo&) = default;
};

// Pointwise maximum of two facts about the same process.
PortInfo join(const PortInfo& a, const PortInfo& b);

class Knowledge {
 public:
  Knowledge() = default;

  bool empty() const noexcept { return facts_.empty(); }
  std::size_t size() const noexcept { return facts_.size(); }

  // The recorded fact about p, or a default PortInfo if none.
  PortInfo about(ProcessId p) const;
  bool has(ProcessId p) const { return find(p) != nullptr; }

  // Joins `info` into the fact recorded about p.
  void record(ProcessId p, const PortInfo& info);

  // Joins every fact of `other` into this value.
  void merge(const Knowledge& other);

  // True iff a fact with steps >= threshold is recorded for every process in
  // [0, n) except `except` (pass kNetworkProcess for "no exception").
  bool all_have_steps(std::int32_t n, std::int64_t threshold,
                      ProcessId except = kNetworkProcess) const;
  bool all_have_session(std::int32_t n, std::int64_t threshold,
                        ProcessId except = kNetworkProcess) const;
  bool all_done(std::int32_t n, ProcessId except = kNetworkProcess) const;

  // Deterministic digest (FNV-1a over the sorted entries); used to compare
  // variable values across reordered computations in the lower-bound
  // machinery. Incremental: only entries at or after the first one changed
  // since the last call are folded, so the simulators' before/after digests
  // of a saturated variable are O(1) (and inline).
  std::uint64_t digest() const {
    if (clean_ < facts_.size()) return fold_dirty();
    return facts_.empty() ? util::kFnv1aOffsetBasis : facts_.back().fnv;
  }

  // Content stamp: equal stamps imply equal contents. Every mutation that
  // changes a fact restamps with a fresh thread-unique nonzero value;
  // copies carry the stamp with the content; stamp 0 is exactly the empty
  // value. A caller that remembers the stamps of two values after joining
  // them can prove a later join of the same (unchanged) pair is a no-op
  // and skip it — the SMM relay gossip loop and the round-based port
  // algorithm do this once knowledge saturates (docs/performance.md).
  std::uint64_t stamp() const noexcept { return stamp_; }

  std::string to_string() const;

  friend bool operator==(const Knowledge& a, const Knowledge& b);

 private:
  // One fact, flattened so the digest prefix state fits in 32 bytes.
  struct Entry {
    std::int64_t steps;
    std::int64_t session;
    // FNV-1a state after this entry; meaningful below clean_ only.
    mutable std::uint64_t fnv;
    ProcessId process;
    bool done;

    PortInfo info() const { return PortInfo{steps, session, done}; }
  };

  const Entry* find(ProcessId p) const noexcept;

  // digest()'s slow path: folds entries [clean_, size) and marks them clean.
  std::uint64_t fold_dirty() const;

  // Fresh thread-unique nonzero stamp (see stamp()).
  static std::uint64_t next_stamp() noexcept {
    thread_local std::uint64_t counter = 0;
    return ++counter;
  }
  // Entries from index i on changed (content or position).
  void changed_from(std::size_t i) noexcept {
    stamp_ = next_stamp();
    if (i < clean_) clean_ = i;
  }

  // Sorted by process id, unique.
  std::vector<Entry> facts_;
  std::uint64_t stamp_ = 0;
  // Entries [0, clean_) hold their up-to-date prefix digest state.
  mutable std::size_t clean_ = 0;
};

}  // namespace sesp
