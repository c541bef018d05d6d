#include "smm/knowledge.hpp"

#include <array>
#include <bit>
#include <sstream>

namespace sesp {

namespace {

// The PortInfo lattice join, in place: raises `fact` (a PortInfo or a
// Knowledge entry) to the pointwise maximum of it and `info`; true iff it
// changed. A saturated fact — the common case — costs three compares and no
// stores. join() and Knowledge's record/merge all go through this one body.
template <class Fact>
bool raise(Fact& fact, const PortInfo& info) noexcept {
  bool changed = false;
  if (info.steps > fact.steps) {
    fact.steps = info.steps;
    changed = true;
  }
  if (info.session > fact.session) {
    fact.session = info.session;
    changed = true;
  }
  if (info.done && !fact.done) {
    fact.done = true;
    changed = true;
  }
  return changed;
}

// kPrimePowers[k] = P^k mod 2^64, P the FNV-1a prime.
constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k)
    pow[k] = pow[k - 1] * util::kFnv1aPrime;
  return pow;
}();

// Byte-wise FNV-1a of v's eight little-endian bytes, continuing from h. The
// k zero high bytes each cost "h ^= 0; h *= P", and h ^ 0 == h, so they fold
// into the single multiply by P^k; the result is bit-identical.
inline std::uint64_t fold_word(std::uint64_t h, std::uint64_t v) noexcept {
  const int bytes = (71 - std::countl_zero(v)) / 8;  // 0 for v == 0
  for (int i = 0; i < bytes; ++i) {
    h ^= v & 0xff;
    h *= util::kFnv1aPrime;
    v >>= 8;
  }
  return h * kPrimePowers[static_cast<std::size_t>(8 - bytes)];
}

}  // namespace

PortInfo join(const PortInfo& a, const PortInfo& b) {
  PortInfo joined = a;
  raise(joined, b);
  return joined;
}

const Knowledge::Entry* Knowledge::find(ProcessId p) const noexcept {
  // Entries are few (ports + relays); a contiguous scan beats binary search
  // at these sizes and the sorted order lets it stop early.
  for (const Entry& e : facts_) {
    if (e.process == p) return &e;
    if (e.process > p) break;
  }
  return nullptr;
}

PortInfo Knowledge::about(ProcessId p) const {
  const Entry* e = find(p);
  return e == nullptr ? PortInfo{} : e->info();
}

void Knowledge::record(ProcessId p, const PortInfo& info) {
  std::size_t i = 0;
  while (i < facts_.size() && facts_[i].process < p) ++i;
  if (i < facts_.size() && facts_[i].process == p) {
    if (raise(facts_[i], info)) changed_from(i);
    return;
  }
  facts_.insert(facts_.begin() + static_cast<std::ptrdiff_t>(i),
                Entry{info.steps, info.session, 0, p, info.done});
  changed_from(i);
}

void Knowledge::merge(const Knowledge& other) {
  if (other.facts_.empty()) return;
  if (facts_.empty()) {
    facts_ = other.facts_;
    stamp_ = other.stamp_;  // content adopted wholesale: share the stamp
    clean_ = other.clean_;
    return;
  }
  const std::size_t size = facts_.size();
  std::size_t first = size;  // first changed index
  std::size_t i = 0;
  // Pass 1: two-pointer join of the common ids, counting the ids only
  // `other` holds. When both values hold the same run of ids (the saturated
  // steady state) the inner loop never advances, so this is a positional
  // join. A missing id's insertion point is where its entry's position, and
  // every later one, changes.
  std::size_t missing = 0;
  for (const Entry& e : other.facts_) {
    while (i < size && facts_[i].process < e.process) ++i;
    if (i < size && facts_[i].process == e.process) {
      if (raise(facts_[i], e.info()) && i < first) first = i;
    } else {
      ++missing;
      if (i < first) first = i;
    }
  }
  // Pass 2: merge the missing ids in place from the back, so nothing moves
  // twice and no scratch buffer is needed.
  if (missing > 0) {
    facts_.resize(size + missing);
    std::size_t a = size, b = other.facts_.size(), k = size + missing;
    while (b > 0) {
      const Entry& e = other.facts_[b - 1];
      if (a > 0 && facts_[a - 1].process >= e.process) {
        if (facts_[a - 1].process == e.process) --b;  // joined in pass 1
        facts_[--k] = facts_[--a];
      } else {
        facts_[--k] = e;
        --b;
      }
    }
  }
  if (first < facts_.size()) changed_from(first);
}

bool Knowledge::all_have_steps(std::int32_t n, std::int64_t threshold,
                               ProcessId except) const {
  std::size_t i = 0;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == except) continue;
    while (i < facts_.size() && facts_[i].process < p) ++i;
    if (i >= facts_.size() || facts_[i].process != p ||
        facts_[i].steps < threshold)
      return false;
  }
  return true;
}

bool Knowledge::all_have_session(std::int32_t n, std::int64_t threshold,
                                 ProcessId except) const {
  std::size_t i = 0;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == except) continue;
    while (i < facts_.size() && facts_[i].process < p) ++i;
    if (i >= facts_.size() || facts_[i].process != p ||
        facts_[i].session < threshold)
      return false;
  }
  return true;
}

bool Knowledge::all_done(std::int32_t n, ProcessId except) const {
  std::size_t i = 0;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == except) continue;
    while (i < facts_.size() && facts_[i].process < p) ++i;
    if (i >= facts_.size() || facts_[i].process != p || !facts_[i].done)
      return false;
  }
  return true;
}

std::uint64_t Knowledge::fold_dirty() const {
  std::uint64_t h = clean_ == 0 ? util::kFnv1aOffsetBasis
                                : facts_[clean_ - 1].fnv;
  for (std::size_t i = clean_; i < facts_.size(); ++i) {
    const Entry& e = facts_[i];
    h = fold_word(h, static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(e.process)));
    h = fold_word(h, static_cast<std::uint64_t>(e.steps));
    h = fold_word(h, static_cast<std::uint64_t>(e.session));
    h = fold_word(h, e.done ? 1 : 0);
    e.fnv = h;
  }
  clean_ = facts_.size();
  return h;
}

std::string Knowledge::to_string() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const Entry& e : facts_) {
    if (!first) os << ", ";
    first = false;
    os << "p" << e.process << ":(steps=" << e.steps << ",sess=" << e.session
       << (e.done ? ",done)" : ")");
  }
  os << "}";
  return os.str();
}

bool operator==(const Knowledge& a, const Knowledge& b) {
  if (a.facts_.size() != b.facts_.size()) return false;
  for (std::size_t i = 0; i < a.facts_.size(); ++i) {
    const Knowledge::Entry& x = a.facts_[i];
    const Knowledge::Entry& y = b.facts_[i];
    if (x.process != y.process || x.steps != y.steps ||
        x.session != y.session || x.done != y.done)
      return false;
  }
  return true;
}

}  // namespace sesp
