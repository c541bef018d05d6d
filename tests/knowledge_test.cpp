#include "smm/knowledge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "util/rng.hpp"

namespace sesp {
namespace {

TEST(PortInfoTest, JoinIsPointwiseMax) {
  const PortInfo a{3, 1, false};
  const PortInfo b{2, 4, true};
  const PortInfo j = join(a, b);
  EXPECT_EQ(j.steps, 3);
  EXPECT_EQ(j.session, 4);
  EXPECT_TRUE(j.done);
}

TEST(KnowledgeTest, AboutUnknownIsDefault) {
  Knowledge k;
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k.about(5).steps, 0);
  EXPECT_FALSE(k.has(5));
}

TEST(KnowledgeTest, RecordJoins) {
  Knowledge k;
  k.record(1, PortInfo{5, 0, false});
  k.record(1, PortInfo{3, 2, true});
  EXPECT_EQ(k.about(1).steps, 5);
  EXPECT_EQ(k.about(1).session, 2);
  EXPECT_TRUE(k.about(1).done);
}

TEST(KnowledgeTest, ThresholdQueries) {
  Knowledge k;
  k.record(0, PortInfo{4, 1, true});
  k.record(1, PortInfo{2, 1, false});
  EXPECT_TRUE(k.all_have_steps(2, 2));
  EXPECT_FALSE(k.all_have_steps(2, 3));
  EXPECT_TRUE(k.all_have_steps(2, 4, /*except=*/1));
  EXPECT_TRUE(k.all_have_session(2, 1));
  EXPECT_FALSE(k.all_done(2));
  EXPECT_TRUE(k.all_done(2, /*except=*/1));
  // Missing process fails the quantifier.
  EXPECT_FALSE(k.all_have_steps(3, 1));
}

TEST(KnowledgeTest, DigestChangesWithContent) {
  Knowledge a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.record(0, PortInfo{1, 0, false});
  EXPECT_NE(a.digest(), b.digest());
  b.record(0, PortInfo{1, 0, false});
  EXPECT_EQ(a.digest(), b.digest());
  b.record(0, PortInfo{1, 0, true});
  EXPECT_NE(a.digest(), b.digest());
}

// CRDT join-semilattice laws, parameterized over small knowledge values.
Knowledge make(int steps0, int sess1, bool done2) {
  Knowledge k;
  if (steps0 >= 0) k.record(0, PortInfo{steps0, 0, false});
  if (sess1 >= 0) k.record(1, PortInfo{0, sess1, false});
  k.record(2, PortInfo{0, 0, done2});
  return k;
}

class KnowledgeLattice
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KnowledgeLattice, MergeIsCommutativeAssociativeIdempotent) {
  const auto [i, j, l] = GetParam();
  const Knowledge a = make(i, j, l % 2 == 0);
  const Knowledge b = make(j, l, i % 2 == 0);
  const Knowledge c = make(l, i, j % 2 == 0);

  Knowledge ab = a;
  ab.merge(b);
  Knowledge ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  Knowledge ab_c = ab;
  ab_c.merge(c);
  Knowledge bc = b;
  bc.merge(c);
  Knowledge a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);

  Knowledge aa = a;
  aa.merge(a);
  EXPECT_EQ(aa, a);
}

TEST_P(KnowledgeLattice, MergeIsMonotone) {
  const auto [i, j, l] = GetParam();
  Knowledge a = make(i, j, false);
  const Knowledge b = make(j, l, true);
  const PortInfo before = a.about(0);
  a.merge(b);
  EXPECT_GE(a.about(0).steps, before.steps);
  EXPECT_GE(a.about(1).session, 0);
}

INSTANTIATE_TEST_SUITE_P(Grid, KnowledgeLattice,
                         ::testing::Combine(::testing::Values(-1, 0, 2, 7),
                                            ::testing::Values(-1, 1, 5),
                                            ::testing::Values(0, 3, 9)));

// --- Differential test against a reference Knowledge -------------------------
//
// The reference is the definition Knowledge must match byte for byte: a
// std::map join and the plain byte-wise FNV-1a digest over the ascending
// entries (eight little-endian bytes per field, process sign-extended). It
// lives here only; production uses the incremental digest and join.

struct RefKnowledge {
  std::map<ProcessId, PortInfo> facts;

  void record(ProcessId p, const PortInfo& info) {
    auto [it, fresh] = facts.emplace(p, info);
    if (!fresh) {
      PortInfo& f = it->second;
      f = PortInfo{std::max(f.steps, info.steps),
                   std::max(f.session, info.session), f.done || info.done};
    }
  }
  void merge(const RefKnowledge& other) {
    for (const auto& [p, info] : other.facts) record(p, info);
  }
  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
    };
    for (const auto& [p, info] : facts) {
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p)));
      mix(static_cast<std::uint64_t>(info.steps));
      mix(static_cast<std::uint64_t>(info.session));
      mix(info.done ? 1 : 0);
    }
    return h;
  }
  std::string to_string() const {
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto& [p, info] : facts) {
      if (!first) os << ", ";
      first = false;
      os << "p" << p << ":(steps=" << info.steps << ",sess=" << info.session
         << (info.done ? ",done)" : ")");
    }
    os << "}";
    return os.str();
  }
};

// Field values mixing the common small case with every byte-width the
// zero-fold path distinguishes: all-zero, interior zero bytes, high bytes
// set (>= 2^56), negatives (all high bytes 0xff) and the extremes.
std::int64_t random_field(Rng& rng) {
  switch (rng.next_below(8)) {
    case 0: return 0;
    case 1: return rng.next_int(1, 255);
    case 2: return rng.next_int(256, 1 << 20);
    case 3: return (std::int64_t{1} << 56) + rng.next_int(0, 1 << 16);
    case 4: return -rng.next_int(1, 1 << 20);
    case 5: return std::numeric_limits<std::int64_t>::max() -
                   rng.next_int(0, 3);
    case 6: return std::numeric_limits<std::int64_t>::min() +
                   rng.next_int(0, 3);
    default: return static_cast<std::int64_t>(rng.next_u64());
  }
}

// Up to 128 ids; a few negative ones exercise the sign-extended process
// field.
ProcessId random_id(Rng& rng, std::int32_t ids) {
  return static_cast<ProcessId>(rng.next_int(-4, ids - 5));
}

// v + by, saturating instead of overflowing.
std::int64_t grow(std::int64_t v, std::int64_t by) {
  return v > std::numeric_limits<std::int64_t>::max() - by ? v : v + by;
}

class KnowledgeDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

// Drives random record / merge / copy / reassign-to-empty sequences over a
// small pool of values and their references. With `eager` every value's
// digest is taken after every operation; without it, digests are taken at
// random moments, so several mutations (at different entry positions)
// accumulate before the incremental digest resumes.
TEST_P(KnowledgeDifferential, MatchesReferenceAfterEveryOperation) {
  const auto [seed, eager] = GetParam();
  Rng rng(seed);
  constexpr std::size_t kPool = 4;
  std::array<Knowledge, kPool> k;
  std::array<RefKnowledge, kPool> ref;
  // Every stamp ever observed, with the content it stood for: equal stamps
  // must mean equal contents.
  std::map<std::uint64_t, std::string> stamp_content{{0, "{}"}};

  for (int round = 0; round < 40; ++round) {
    const std::int32_t ids = 1 + static_cast<std::int32_t>(rng.next_below(128));
    for (int op = 0; op < 200; ++op) {
      const std::size_t a = rng.next_below(kPool);
      const std::size_t b = rng.next_below(kPool);
      const std::string before = ref[a].to_string();
      const std::uint64_t stamp_before = k[a].stamp();
      const std::uint64_t kind = rng.next_below(16);
      std::string what;
      const bool joins = kind < 13;  // record or merge
      if (kind < 8) {
        const ProcessId p = random_id(rng, ids);
        PortInfo info;
        // Mostly monotone growth of small facts, as the algorithms produce;
        // sometimes arbitrary wide values.
        if (rng.next_bool(3, 4)) {
          const PortInfo cur = ref[a].facts.count(p) ? ref[a].facts[p]
                                                     : PortInfo{};
          info = PortInfo{grow(cur.steps, rng.next_int(0, 2)),
                          grow(cur.session, rng.next_int(0, 1)),
                          rng.next_bool(1, 8)};
        } else {
          info = PortInfo{random_field(rng), random_field(rng),
                          rng.next_bool(1, 2)};
        }
        k[a].record(p, info);
        ref[a].record(p, info);
        what = "record p" + std::to_string(p);
      } else if (kind < 13) {
        k[a].merge(k[b]);
        ref[a].merge(ref[b]);
        what = "merge " + std::to_string(b);
      } else if (kind < 15) {
        k[a] = k[b];
        ref[a] = ref[b];
        what = "copy " + std::to_string(b);
      } else {
        k[a] = Knowledge{};
        ref[a] = RefKnowledge{};
        what = "clear";
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                   std::to_string(round) + " op " + std::to_string(op) +
                   ": value " + std::to_string(a) + " " + what);

      const std::string after = ref[a].to_string();
      ASSERT_EQ(k[a].to_string(), after);
      ASSERT_EQ(k[a].size(), ref[a].facts.size());
      ASSERT_EQ(k[a].empty(), ref[a].facts.empty());
      // Stamp contract: 0 is exactly the empty value; a join that changes
      // nothing keeps the stamp; equal stamps always mean equal contents.
      ASSERT_EQ(k[a].stamp() == 0, ref[a].facts.empty());
      if (joins && after == before) {
        ASSERT_EQ(k[a].stamp(), stamp_before);
      }
      const auto [it, fresh] = stamp_content.emplace(k[a].stamp(), after);
      if (!fresh) {
        ASSERT_EQ(it->second, after) << "stamp reused";
      }

      for (std::size_t i = 0; i < kPool; ++i) {
        ASSERT_EQ(k[a] == k[i], ref[a].facts == ref[i].facts) << "vs " << i;
        if (eager || rng.next_bool(1, 8)) {
          ASSERT_EQ(k[i].digest(), ref[i].digest()) << "value " << i;
        }
      }
    }
  }
  for (std::size_t i = 0; i < kPool; ++i)
    EXPECT_EQ(k[i].digest(), ref[i].digest());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnowledgeDifferential,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

// The zero-fold boundaries one by one: every byte width of every field, so
// a wrong P^k entry or byte count cannot hide behind a lucky random draw.
TEST(KnowledgeDigestTest, EveryByteWidthMatchesReference) {
  for (int width = 0; width <= 64; ++width) {
    const std::uint64_t bits =
        width == 0 ? 0 : (~std::uint64_t{0} >> (64 - width));
    for (const std::uint64_t v : {bits, bits & ~std::uint64_t{0xff},
                                  width == 0 ? 0 : std::uint64_t{1}
                                                       << (width - 1)}) {
      const auto f = static_cast<std::int64_t>(v);
      Knowledge k;
      RefKnowledge ref;
      for (const PortInfo info :
           {PortInfo{f, 0, false}, PortInfo{0, f, true}}) {
        k.record(3, info);
        ref.record(3, info);
        k.record(static_cast<ProcessId>(f), info);
        ref.record(static_cast<ProcessId>(f), info);
        ASSERT_EQ(k.digest(), ref.digest()) << "width " << width;
      }
    }
  }
}

}  // namespace
}  // namespace sesp
