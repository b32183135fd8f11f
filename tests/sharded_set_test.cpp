// Tests for the shard layer (src/shard/sharded_set.h): shard-map algebra,
// a std::set-oracle equivalence check for the cross-shard order statistics
// (exercising keys and ranges that straddle shard boundaries), snapshot
// multi-query consistency, and a multi-threaded quiescent-consistency
// check that is run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/bat_tree.h"
#include "shard/aggregate_cache.h"
#include "shard/sharded_set.h"
#include "util/counters.h"
#include "util/random.h"

namespace cbat {
namespace {

using Sharded4 = ShardedSet<Bat<SizeAug>, 4>;
using Sharded16 = ShardedSet<Bat<SizeAug>, 16>;

TEST(ShardedSet, ShardMapIsMonotoneAndCoversTheKeyspace) {
  Sharded4 s(1000);
  EXPECT_EQ(s.keyspace(), 1000);
  EXPECT_EQ(s.num_shards(), 4);
  int prev = 0;
  for (Key k = 0; k < 1200; ++k) {
    const int sh = s.shard_of(k);
    ASSERT_GE(sh, prev) << k;  // monotone: order statistics compose
    ASSERT_LT(sh, 4) << k;
    prev = sh;
  }
  EXPECT_EQ(s.shard_of(0), 0);
  EXPECT_EQ(s.shard_of(-5), 0);        // out-of-range keys clamp
  EXPECT_EQ(s.shard_of(999), 3);
  EXPECT_EQ(s.shard_of(1000000), 3);
  EXPECT_EQ(s.shard_of(kMaxUserKey), 3);
}

TEST(ShardedSet, HugeKeyspaceDoesNotOverflowTheShardMap) {
  // A keyspace near INT64_MAX must not wrap the ceiling in the width
  // computation (which would make shard_of negative: out-of-bounds).
  ShardedSet<Bat<SizeAug>, 64> s(kMaxUserKey);
  EXPECT_EQ(s.shard_of(0), 0);
  EXPECT_EQ(s.shard_of(kMaxUserKey / 2), 31);
  EXPECT_EQ(s.shard_of(kMaxUserKey), 63);
  EXPECT_TRUE(s.insert(kMaxUserKey));
  EXPECT_TRUE(s.contains(kMaxUserKey));
  EXPECT_EQ(s.rank(kMaxUserKey), 1);
  EXPECT_EQ(s.select(1), kMaxUserKey);
}

TEST(ShardedSet, KeyRangeHintOnlyWhileEmpty) {
  Sharded4 s(1000);
  EXPECT_TRUE(s.key_range_hint(4000));
  EXPECT_EQ(s.keyspace(), 4000);
  EXPECT_FALSE(s.key_range_hint(0));
  EXPECT_FALSE(s.key_range_hint(-7));
  EXPECT_TRUE(s.insert(17));
  EXPECT_FALSE(s.key_range_hint(8000)) << "populated set must refuse";
  EXPECT_EQ(s.keyspace(), 4000);
  EXPECT_TRUE(s.erase(17));
  EXPECT_TRUE(s.key_range_hint(8000)) << "empty again, hint applies";
}

TEST(ShardedSet, DefaultKeyspaceKnobIsShared) {
  const Key saved = shard_detail::default_keyspace();
  shard_detail::set_default_keyspace(12345);
  EXPECT_EQ(Sharded4().keyspace(), 12345);
  EXPECT_EQ(Sharded16().keyspace(), 12345);
  shard_detail::set_default_keyspace(saved);
  EXPECT_EQ(Sharded4().keyspace(), saved);
}

// Reference implementation of every order statistic on a std::set.
struct Oracle {
  std::set<Key> s;

  std::int64_t rank(Key k) const {
    return static_cast<std::int64_t>(
        std::distance(s.begin(), s.upper_bound(k)));
  }
  std::optional<Key> select(std::int64_t i) const {
    if (i < 1 || i > static_cast<std::int64_t>(s.size())) return std::nullopt;
    auto it = s.begin();
    std::advance(it, i - 1);
    return *it;
  }
  std::int64_t range_count(Key lo, Key hi) const {
    if (lo > hi) return 0;
    return static_cast<std::int64_t>(
        std::distance(s.lower_bound(lo), s.upper_bound(hi)));
  }
};

TEST(ShardedSet, OracleEquivalenceAcrossShardBoundaries) {
  constexpr Key kKeyspace = 4000;  // shard width 1000 in Sharded4
  Sharded4 set(kKeyspace);
  Oracle oracle;
  Xoshiro256 rng(42);

  // Mixed random inserts/erases, biased around the three shard boundaries
  // (1000/2000/3000) so boundary keys and straddling ranges are common.
  for (int step = 0; step < 6000; ++step) {
    Key k;
    if (rng.below(4) == 0) {
      const Key boundary = 1000 * static_cast<Key>(1 + rng.below(3));
      k = boundary - 3 + static_cast<Key>(rng.below(7));
    } else {
      k = static_cast<Key>(rng.below(kKeyspace));
    }
    if (rng.below(3) == 0) {
      EXPECT_EQ(set.erase(k), oracle.s.erase(k) > 0) << k;
    } else {
      EXPECT_EQ(set.insert(k), oracle.s.insert(k).second) << k;
    }

    if (step % 100 != 99) continue;
    ASSERT_EQ(set.size(), static_cast<std::int64_t>(oracle.s.size()));
    // Point queries at and around the boundaries.
    for (Key q : {Key{0}, Key{999}, Key{1000}, Key{1001}, Key{2500},
                  Key{3999}, Key{4500}}) {
      ASSERT_EQ(set.contains(q), oracle.s.count(q) > 0) << q;
      ASSERT_EQ(set.rank(q), oracle.rank(q)) << q;
    }
    // Selects across the whole size range, plus both out-of-range sides.
    const std::int64_t n = set.size();
    for (std::int64_t i : {std::int64_t{0}, std::int64_t{1}, n / 4, n / 2,
                           n, n + 1}) {
      ASSERT_EQ(set.select(i), oracle.select(i)) << i;
    }
    // Ranges that straddle one, two, and three boundaries, plus empty and
    // degenerate ones.
    const struct {
      Key lo, hi;
    } ranges[] = {{900, 1100},  {500, 2500},   {0, 3999},  {1000, 2999},
                  {2500, 2500}, {3000, 2000},  {-50, 800}, {3900, 9999}};
    for (const auto& r : ranges) {
      ASSERT_EQ(set.range_count(r.lo, r.hi), oracle.range_count(r.lo, r.hi))
          << r.lo << ".." << r.hi;
    }
  }
}

TEST(ShardedSet, CompositeQueriesAgreeOnOneSnapshot) {
  Sharded4 set(4000);
  for (Key k = 0; k < 4000; k += 7) set.insert(k);

  Sharded4::Snapshot snap(set);
  const std::int64_t n = snap.size();
  ASSERT_GT(n, 0);
  EXPECT_EQ(snap.range_count(std::numeric_limits<Key>::min(), kMaxUserKey),
            n);
  // select and rank are inverse on a snapshot.
  for (std::int64_t i = 1; i <= n; i += 97) {
    const auto k = snap.select(i);
    ASSERT_TRUE(k.has_value()) << i;
    EXPECT_EQ(snap.rank(*k), i) << i;
  }
  // select_in_range equals filtering by hand.
  EXPECT_EQ(snap.select_in_range(995, 2005, 1), snap.ceiling(995));
  EXPECT_EQ(snap.select_in_range(995, 2005, snap.range_count(995, 2005)),
            snap.floor(2005));
  EXPECT_EQ(snap.select_in_range(995, 2005, snap.range_count(995, 2005) + 1),
            std::nullopt);
  // keys() is sorted and consistent with range_count.
  const auto keys = snap.keys(900, 3100);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(static_cast<std::int64_t>(keys.size()),
            snap.range_count(900, 3100));
  // Updates after the snapshot stay invisible to it.
  const Key fresh = 4001;
  ASSERT_TRUE(set.insert(fresh));
  EXPECT_FALSE(snap.contains(fresh));
  EXPECT_EQ(snap.size(), n);
  EXPECT_TRUE(set.contains(fresh));
}

TEST(ShardedSet, RangeAggregateComposesAcrossShards) {
  ShardedSet<Bat<SizeSumAug>, 4> set(4000);
  std::int64_t sum = 0;
  for (Key k = 10; k < 4000; k += 10) {
    set.insert(k);
    if (k >= 500 && k <= 3500) sum += k;
  }
  const auto agg = set.range_aggregate(500, 3500);
  EXPECT_EQ(SizeSumAug::size_of(agg), set.range_count(500, 3500));
  EXPECT_EQ(agg.second, sum);
}

// Quiescent consistency: concurrent mixed updates with concurrent
// snapshot readers; each reader's snapshot must be internally consistent
// at all times, and after quiescence the forest must equal a sequential
// replay oracle cross-checked per shard.  TSan runs this in CI.
TEST(ShardedSet, MultiThreadedQuiescentConsistency) {
  constexpr Key kKeyspace = 1 << 14;
  constexpr int kUpdaters = 3;
  constexpr int kOpsPerThread = 20000;
  Sharded16 set(kKeyspace);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&set, t] {
      // Each thread owns keys congruent to t mod kUpdaters, so the final
      // contents are deterministic despite interleaving.
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key k = static_cast<Key>(rng.below(kKeyspace) /
                                       kUpdaters * kUpdaters) +
                      t;
        if (rng.below(3) == 0) {
          set.erase(k);
        } else {
          set.insert(k);
        }
      }
    });
  }
  std::thread reader([&set, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      Sharded16::Snapshot snap(set);
      const std::int64_t n = snap.size();
      // Internal consistency of one pinned snapshot.
      ASSERT_EQ(snap.range_count(std::numeric_limits<Key>::min(),
                                 kMaxUserKey),
                n);
      ASSERT_EQ(snap.rank(kMaxUserKey), n);
      if (n > 0) {
        const auto mid = snap.select((n + 1) / 2);
        ASSERT_TRUE(mid.has_value());
        ASSERT_EQ(snap.rank(*mid), (n + 1) / 2);
        ASSERT_TRUE(snap.contains(*mid));
      }
      ASSERT_EQ(snap.select(n + 1), std::nullopt);
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Quiesced: replay each thread's deterministic stream sequentially.
  std::set<Key> oracle;
  for (int t = 0; t < kUpdaters; ++t) {
    Xoshiro256 rng(1000 + t);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const Key k = static_cast<Key>(rng.below(kKeyspace) /
                                     kUpdaters * kUpdaters) +
                    t;
      if (rng.below(3) == 0) {
        oracle.erase(k);
      } else {
        oracle.insert(k);
      }
    }
  }
  ASSERT_EQ(set.size(), static_cast<std::int64_t>(oracle.size()));
  const auto keys = Sharded16::Snapshot(set).keys();
  ASSERT_EQ(keys.size(), oracle.size());
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), oracle.begin()));
}

// --- the aggregate-cached read path (ReadPath::kCached) ------------------

using CachedQ4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kQuiescent,
                            ReadPath::kCached>;
using CachedLin4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kLinearizable,
                              ReadPath::kCached>;

// The cache's only correctness job is refusing entries whose stamp is not
// the caller's pinned root's stamp; everything else is best effort.
TEST(AggregateCache4, ValidatesByStampIdentity) {
  AggregateCache<4> cache;
  std::int64_t v = -1;
  // Empty entries never hit, whatever stamp is probed (kEpochTbd == 0 is
  // the unstamped sentinel and must be unmatchable).
  EXPECT_FALSE(cache.load_range(0, 100, 900, 0, &v));
  EXPECT_FALSE(cache.load_range(0, 100, 900, 7, &v));

  cache.store_range(0, 100, 900, /*stamp=*/5, /*v=*/17);
  EXPECT_TRUE(cache.load_range(0, 100, 900, 5, &v));
  EXPECT_EQ(v, 17);
  EXPECT_FALSE(cache.load_range(0, 100, 900, 6, &v)) << "stamp mismatch";
  EXPECT_FALSE(cache.load_range(1, 100, 900, 5, &v)) << "other shards";

  // A refill under a new stamp supersedes the old entry entirely.
  cache.store_range(0, 100, 900, 9, 18);
  EXPECT_FALSE(cache.load_range(0, 100, 900, 5, &v));
  EXPECT_TRUE(cache.load_range(0, 100, 900, 9, &v));
  EXPECT_EQ(v, 18);

  // Entries additionally key on the exact bounds: a colliding way must
  // miss on bounds, never return another range's aggregate.
  EXPECT_FALSE(cache.load_range(0, 100, 901, 9, &v));
  EXPECT_FALSE(cache.load_range(0, 101, 900, 9, &v));

  // A map-flip sweep drops every entry.
  cache.invalidate_all();
  EXPECT_FALSE(cache.load_range(0, 100, 900, 9, &v));
}

// Mixed updates with composite reads after every step, so the hot-range
// cache is refilled and revalidated against moving root stamps constantly,
// checked against a std::set oracle.
TEST(ShardedSetCached, OracleEquivalenceThroughCachedReads) {
  constexpr Key kKeyspace = 4000;
  CachedQ4 set(kKeyspace);
  Oracle oracle;
  Xoshiro256 rng(1234);
  for (int step = 0; step < 4000; ++step) {
    const Key k = static_cast<Key>(rng.below(kKeyspace));
    if (rng.below(3) == 0) {
      ASSERT_EQ(set.erase(k), oracle.s.erase(k) > 0) << k;
    } else {
      ASSERT_EQ(set.insert(k), oracle.s.insert(k).second) << k;
    }
    ASSERT_EQ(set.size(), static_cast<std::int64_t>(oracle.s.size()));
    if (step % 5 != 4) continue;
    const Key q = static_cast<Key>(rng.below(kKeyspace));
    ASSERT_EQ(set.rank(q), oracle.rank(q)) << q;
    ASSERT_EQ(set.range_count(q, q + 500), oracle.range_count(q, q + 500))
        << q;
    // range_aggregate == range_count for SizeAug, served through the
    // hot-range cache (the repeated fixed range keeps one entry hot).
    ASSERT_EQ(set.range_aggregate(1000, 2999),
              oracle.range_count(1000, 2999));
    const std::int64_t n = static_cast<std::int64_t>(oracle.s.size());
    if (n > 0) {
      const std::int64_t i = 1 + static_cast<std::int64_t>(
                                     rng.below(static_cast<std::uint64_t>(n)));
      ASSERT_EQ(set.select(i), oracle.select(i)) << i;
    }
    ASSERT_EQ(set.select(n + 1), std::nullopt);
  }
}

TEST(ShardedSetCached, LinearizableVariantMatchesOracleToo) {
  constexpr Key kKeyspace = 4000;
  CachedLin4 set(kKeyspace);
  Oracle oracle;
  Xoshiro256 rng(4321);
  for (int step = 0; step < 3000; ++step) {
    const Key k = static_cast<Key>(rng.below(kKeyspace));
    if (rng.below(3) == 0) {
      ASSERT_EQ(set.erase(k), oracle.s.erase(k) > 0) << k;
    } else {
      ASSERT_EQ(set.insert(k), oracle.s.insert(k).second) << k;
    }
    if (step % 5 != 4) continue;
    ASSERT_EQ(set.size(), static_cast<std::int64_t>(oracle.s.size()));
    const Key q = static_cast<Key>(rng.below(kKeyspace));
    ASSERT_EQ(set.rank(q), oracle.rank(q)) << q;
    ASSERT_EQ(set.range_aggregate(500, 3500), oracle.range_count(500, 3500));
  }
}

// Every cache lookup a query makes is counted by the time the query
// returns, on the calling thread, with no thread exit or batch threshold
// in between: the Snapshot flushes its tallies in its destructor.
// Boundary pieces are the only lookups — one for a range inside one shard,
// two for a range spanning shards (middle shards use their root field).
template <class Forest>
void expect_cache_lookups_counted() {
  constexpr Key kKeyspace = 4000;  // 4 shards of width 1000
  Forest set(kKeyspace);
  for (Key k = 0; k < kKeyspace; k += 5) ASSERT_TRUE(set.insert(k));
  const auto lookups = [] {
    const auto c = Counters::snapshot();
    return c[Counter::kAggCacheHits] + c[Counter::kAggCacheMisses];
  };
  const std::uint64_t start = lookups();
  constexpr int kRounds = 50;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_EQ(set.range_aggregate(100, 900), 161);    // one shard: 1
    ASSERT_EQ(set.range_aggregate(1000, 2999), 400);  // two shards: 2
    ASSERT_EQ(set.range_aggregate(500, 3500), 601);   // four shards: 2
  }
  EXPECT_EQ(lookups() - start, std::uint64_t{kRounds} * 5);
  // With no update in between, a range whose entries no other range
  // shares hits on both pieces every time.
  const auto before = Counters::snapshot();
  for (int i = 0; i < kRounds; ++i) set.range_aggregate(1000, 2999);
  const auto after = Counters::snapshot();
  EXPECT_EQ(after[Counter::kAggCacheHits] - before[Counter::kAggCacheHits],
            std::uint64_t{kRounds} * 2);
  EXPECT_EQ(after[Counter::kAggCacheMisses], before[Counter::kAggCacheMisses]);
}

TEST(ShardedSetCached, CacheLookupsAreCountedWhenTheQueryReturns) {
  expect_cache_lookups_counted<CachedQ4>();
}

TEST(ShardedSetCached, CacheLookupsAreCountedOnLinearizableForestsToo) {
  expect_cache_lookups_counted<CachedLin4>();
}

// The direct read path never consults (or counts) a cache.
TEST(ShardedSetCached, DirectForestsCountNoCacheLookups) {
  Sharded4 set(4000);
  for (Key k = 0; k < 4000; k += 5) ASSERT_TRUE(set.insert(k));
  const auto before = Counters::snapshot();
  for (int i = 0; i < 20; ++i) ASSERT_EQ(set.range_aggregate(1000, 2999), 400);
  const auto after = Counters::snapshot();
  EXPECT_EQ(after[Counter::kAggCacheHits], before[Counter::kAggCacheHits]);
  EXPECT_EQ(after[Counter::kAggCacheMisses], before[Counter::kAggCacheMisses]);
}

// --- span cuts: one-shot queries on one or two shards ----------------------

using Lin4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kLinearizable>;

// The one-shot key-range queries and floor/ceiling on every static forest
// flavor, against the oracle: ranges inside one shard and across two (the
// span cut), across three or more (the epoch cut), empty and inverted
// ones, and floor/ceiling probes whose own shard is empty (the fallback to
// a whole-forest cut).  Shard 2 of 4 stays empty throughout.
template <class Forest>
void expect_span_queries_match_oracle() {
  constexpr Key kKeyspace = 4000;  // 4 shards of width 1000
  Forest set(kKeyspace);
  Oracle oracle;
  Xoshiro256 rng(77);
  const auto floor_of = [&](Key k) -> std::optional<Key> {
    auto it = oracle.s.upper_bound(k);
    if (it == oracle.s.begin()) return std::nullopt;
    return *--it;
  };
  const auto ceiling_of = [&](Key k) -> std::optional<Key> {
    auto it = oracle.s.lower_bound(k);
    if (it == oracle.s.end()) return std::nullopt;
    return *it;
  };
  for (int step = 0; step < 3000; ++step) {
    Key k = static_cast<Key>(rng.below(kKeyspace));
    if (k >= 2000 && k < 3000) k -= 1000;
    if (rng.below(3) == 0) {
      ASSERT_EQ(set.erase(k), oracle.s.erase(k) > 0) << k;
    } else {
      ASSERT_EQ(set.insert(k), oracle.s.insert(k).second) << k;
    }
    if (step % 10 != 9) continue;
    for (int q = 0; q < 8; ++q) {
      const Key lo = static_cast<Key>(rng.below(kKeyspace + 200)) - 100;
      const Key hi = lo + static_cast<Key>(rng.below(q < 4 ? 1200 : 4000));
      const std::int64_t n = oracle.range_count(lo, hi);
      ASSERT_EQ(set.range_count(lo, hi), n) << lo << ".." << hi;
      ASSERT_EQ(set.range_count(hi, lo), lo == hi ? n : 0);
      ASSERT_EQ(set.range_aggregate(lo, hi), n) << lo << ".." << hi;
      for (std::int64_t i : {std::int64_t{0}, std::int64_t{1}, n / 2, n,
                             n + 1}) {
        const std::optional<Key> want =
            i >= 1 && i <= n ? oracle.select(oracle.rank(lo - 1) + i)
                             : std::nullopt;
        ASSERT_EQ(set.select_in_range(lo, hi, i), want)
            << lo << ".." << hi << " #" << i;
      }
      ASSERT_EQ(set.floor(lo), floor_of(lo)) << lo;
      ASSERT_EQ(set.ceiling(lo), ceiling_of(lo)) << lo;
    }
    for (Key p : {Key{2500}, Key{2000}, Key{2999}, Key{-5}, Key{4100}}) {
      ASSERT_EQ(set.floor(p), floor_of(p)) << p;
      ASSERT_EQ(set.ceiling(p), ceiling_of(p)) << p;
    }
  }
}

TEST(ShardedSetSpanCut, OneShotQueriesMatchOracleQuiescent) {
  expect_span_queries_match_oracle<Sharded4>();
}
TEST(ShardedSetSpanCut, OneShotQueriesMatchOracleLinearizable) {
  expect_span_queries_match_oracle<Lin4>();
}
TEST(ShardedSetSpanCut, OneShotQueriesMatchOracleCached) {
  expect_span_queries_match_oracle<CachedQ4>();
}
TEST(ShardedSetSpanCut, OneShotQueriesMatchOracleCachedLinearizable) {
  expect_span_queries_match_oracle<CachedLin4>();
}

// Exact counter accounting: one- and two-shard one-shot queries, and
// floor/ceiling that hit in their own shard, take the span cut and leave
// the epoch counter where it was; every whole-forest query advances it by
// exactly one.  On the cached forest every root was stamped by an update
// (with a fetch_add-minted stamp), so the readers' help-stamps mint none;
// the insert and erase in shard 2 replace its never-stamped initial root.
template <class Forest>
void expect_span_cuts_leave_the_epoch_alone() {
  Forest set(4000);
  for (Key k = 5; k < 4000; k += 10) {
    if (k >= 2000 && k < 3000) continue;  // shard 2 stays empty
    ASSERT_TRUE(set.insert(k));
  }
  ASSERT_TRUE(set.insert(2500));
  ASSERT_TRUE(set.erase(2500));
  const std::uint64_t e0 = set.current_epoch();
  EXPECT_TRUE(set.contains(105));
  EXPECT_EQ(set.range_count(100, 900), 80);          // one shard
  EXPECT_EQ(set.range_count(900, 1100), 20);         // two shards
  EXPECT_EQ(set.range_aggregate(1000, 1999), 100);   // one shard
  EXPECT_EQ(set.range_aggregate(500, 1499), 100);    // two shards
  EXPECT_EQ(set.select_in_range(900, 1100, 11), Key{1005});
  EXPECT_EQ(set.floor(1010), Key{1005});             // hits in its shard
  EXPECT_EQ(set.ceiling(1003), Key{1005});
  EXPECT_EQ(set.range_count(1900, 2100), 10);        // empty shard 2
  EXPECT_EQ(set.current_epoch(), e0);

  EXPECT_EQ(set.rank(1000), 100);
  EXPECT_EQ(set.current_epoch(), e0 + 1);
  EXPECT_EQ(set.range_count(500, 3500), 200);  // four shards: epoch cut
  EXPECT_EQ(set.current_epoch(), e0 + 2);
  EXPECT_EQ(set.floor(2500), Key{1995});       // own shard empty: fallback
  EXPECT_EQ(set.current_epoch(), e0 + 3);
  EXPECT_EQ(set.ceiling(2500), Key{3005});
  EXPECT_EQ(set.current_epoch(), e0 + 4);
  EXPECT_EQ(set.size(), 300);
  EXPECT_EQ(set.current_epoch(), e0 + 5);
}

TEST(ShardedSetSpanCut, OneAndTwoShardQueriesLeaveTheEpochAlone) {
  expect_span_cuts_leave_the_epoch_alone<Lin4>();
}
TEST(ShardedSetSpanCut, CachedOneAndTwoShardQueriesLeaveTheEpochAlone) {
  expect_span_cuts_leave_the_epoch_alone<CachedLin4>();
}

// The double collect's validation, forced through its test seam: an update
// lands between the two collects of the first attempt (one retry, still
// no counter increment), or of every attempt (the span cut gives up and
// takes the epoch cut).  The seam's call count is the number of attempts
// made.  Both answers must be the oracle's, and must include every update
// the seam made, since each completed before the query's final cut.
struct CollectSeam {
  Lin4* set = nullptr;
  int moves = 0;  // attempts that moved a root
  int force = 0;  // attempts to move a root on (from attempt 0)
  int calls = 0;  // attempts made
};

void move_a_root(void* ctx, int attempt) {
  auto* c = static_cast<CollectSeam*>(ctx);
  ++c->calls;
  if (attempt >= c->force) return;
  // Alternate shards 0 and 1, the two the query reads.
  const Key k = attempt % 2 == 0 ? 950 - attempt : 1050 + attempt;
  ASSERT_TRUE(c->set->insert(k));
  ++c->moves;
}

TEST(ShardedSetSpanCut, DoubleCollectRetriesWhenARootMoves) {
  Lin4 set(4000);
  for (Key k = 900; k <= 1100; k += 20) ASSERT_TRUE(set.insert(k));
  CollectSeam seam{&set, 0, 1};
  set.set_collect_hook(&move_a_root, &seam);
  const std::uint64_t e0 = set.current_epoch();
  EXPECT_EQ(set.range_count(900, 1100), 12);
  EXPECT_EQ(seam.moves, 1);
  EXPECT_EQ(seam.calls, 2);
  EXPECT_EQ(set.current_epoch(), e0);
  set.set_collect_hook(nullptr, nullptr);
}

TEST(ShardedSetSpanCut, DoubleCollectFallsBackToTheEpochCut) {
  Lin4 set(4000);
  for (Key k = 900; k <= 1100; k += 20) ASSERT_TRUE(set.insert(k));
  CollectSeam seam{&set, 0, Lin4::kCollectAttempts};
  set.set_collect_hook(&move_a_root, &seam);
  const std::uint64_t e0 = set.current_epoch();
  EXPECT_EQ(set.range_aggregate(900, 1100), 11 + Lin4::kCollectAttempts);
  EXPECT_EQ(seam.moves, Lin4::kCollectAttempts);
  EXPECT_EQ(seam.calls, Lin4::kCollectAttempts);
  EXPECT_EQ(set.current_epoch(), e0 + 1);
  set.set_collect_hook(nullptr, nullptr);
  Oracle oracle;
  for (Key k = 900; k <= 1100; k += 20) oracle.s.insert(k);
  for (int a = 0; a < Lin4::kCollectAttempts; ++a) {
    oracle.s.insert(a % 2 == 0 ? 950 - a : 1050 + a);
  }
  for (std::int64_t i = 1; i <= oracle.range_count(900, 1100); ++i) {
    EXPECT_EQ(set.select_in_range(900, 1100, i),
              oracle.select(oracle.rank(899) + i));
  }
}

// --- adaptive rebalancing (ISSUE 7: epoch-cut key migration) --------------

using Adapt4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kQuiescent,
                          ReadPath::kDirect, /*Adaptive=*/true>;

// rebalance_once argument guards: non-adjacent pairs, out-of-bounds
// indices, and shards too small to split must all refuse without
// touching the map.
TEST(AdaptiveShardedSet, RebalanceOnceRefusesBadMoves) {
  Adapt4 set(4096);
  set.set_adaptive_enabled(false);
  EXPECT_EQ(set.map_generation(), 1u);
  EXPECT_FALSE(set.rebalance_once(0, 2)) << "not adjacent";
  EXPECT_FALSE(set.rebalance_once(0, 0)) << "not adjacent";
  EXPECT_FALSE(set.rebalance_once(-1, 0));
  EXPECT_FALSE(set.rebalance_once(3, 4));
  EXPECT_FALSE(set.rebalance_once(0, 1)) << "empty shard: nothing to split";
  for (Key k = 0; k < 10; ++k) ASSERT_TRUE(set.insert(k));
  EXPECT_FALSE(set.rebalance_once(0, 1)) << "below the split minimum";
  EXPECT_EQ(set.map_generation(), 1u);
  for (Key k = 10; k < 64; ++k) ASSERT_TRUE(set.insert(k));
  const auto before = Counters::snapshot();
  EXPECT_TRUE(set.rebalance_once(0, 1));
  EXPECT_EQ(set.map_generation(), 2u);
  const auto after = Counters::snapshot();
  EXPECT_EQ(after[Counter::kShardMigrations],
            before[Counter::kShardMigrations] + 1);
  EXPECT_GT(after[Counter::kShardMigratedKeys],
            before[Counter::kShardMigratedKeys]);
  // Membership survived the move.
  for (Key k = 0; k < 64; ++k) EXPECT_TRUE(set.contains(k)) << k;
  EXPECT_EQ(set.size(), 64);
}

// The piggybacked policy alone (no explicit rebalance_once) must detect a
// single-shard hotspot and move its keys: all traffic lands in shard 0,
// so the update-rate counters cross the hot-factor threshold within a
// few check periods.
TEST(AdaptiveShardedSet, PolicyMigratesUnderSkewedUpdates) {
  Adapt4 set(4096);
  Xoshiro256 rng(5);
  for (int step = 0; step < 80000 && set.map_generation() == 1; ++step) {
    const Key k = static_cast<Key>(rng.below(1024));  // shard 0 only
    if (rng.below(2) == 0) {
      set.insert(k);
    } else {
      set.erase(k);
    }
  }
  EXPECT_GT(set.map_generation(), 1u)
      << "a pure shard-0 workload must trigger the controller";
}

// Migrations racing real update/reader traffic (TSan-gated in CI, with
// the quiescent-consistency suite).  Updaters own disjoint key classes so
// the final contents replay deterministically; a migrator thread
// ping-pongs the 0/1 boundary through entire protocol cycles while the
// policy is free to add its own moves; a reader checks snapshot-internal
// consistency throughout.  After quiescence the forest must equal the
// sequential oracle exactly — every key exactly once, wherever it lives
// now.
TEST(AdaptiveShardedSet, MigrateUnderLoadStaysExact) {
  constexpr Key kKeyspace = 1 << 12;
  constexpr int kUpdaters = 2;
  constexpr int kOpsPerThread = 24000;
  Adapt4 set(kKeyspace);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&set, t] {
      // Zipf-ish skew by construction: three quarters of the traffic in
      // the lowest shard, so migrations have something to chase.
      Xoshiro256 rng(77 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t span = rng.below(4) == 0 ? kKeyspace : 1024;
        const Key k =
            static_cast<Key>(rng.below(span) / kUpdaters * kUpdaters) + t;
        if (rng.below(3) == 0) {
          set.erase(k);
        } else {
          set.insert(k);
        }
      }
    });
  }
  std::thread migrator([&set, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      set.rebalance_once(0, 1);
      set.rebalance_once(1, 0);
      set.rebalance_once(1, 2);
      set.rebalance_once(2, 1);
    }
  });
  std::thread reader([&set, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      Adapt4::Snapshot snap(set);
      const std::int64_t n = snap.size();
      ASSERT_GE(n, 0);
      ASSERT_EQ(snap.range_count(std::numeric_limits<Key>::min(),
                                 kMaxUserKey),
                n);
      if (n > 0) {
        const auto mid = snap.select((n + 1) / 2);
        ASSERT_TRUE(mid.has_value());
        ASSERT_EQ(snap.rank(*mid), (n + 1) / 2);
        ASSERT_TRUE(snap.contains(*mid));
      }
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  migrator.join();
  reader.join();

  EXPECT_GT(set.map_generation(), 1u) << "no migration ever completed";

  std::set<Key> oracle;
  for (int t = 0; t < kUpdaters; ++t) {
    Xoshiro256 rng(77 + t);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const std::uint64_t span = rng.below(4) == 0 ? kKeyspace : 1024;
      const Key k =
          static_cast<Key>(rng.below(span) / kUpdaters * kUpdaters) + t;
      if (rng.below(3) == 0) {
        oracle.erase(k);
      } else {
        oracle.insert(k);
      }
    }
  }
  ASSERT_EQ(set.size(), static_cast<std::int64_t>(oracle.size()));
  const auto keys = Adapt4::Snapshot(set).keys();
  ASSERT_EQ(keys.size(), oracle.size());
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), oracle.begin()));
  // Per-key sweep through the post-migration routing map.
  for (Key k = 0; k < 1024; ++k) {
    ASSERT_EQ(set.contains(k), oracle.count(k) > 0) << k;
  }
}

// --- updates racing a migration's copy phase ------------------------------

// Updates that route during the copy phase must survive the move: they
// land in the source after the bulk copy was taken, so only the dirty-key
// log and its replay carry them into the destination, and the cleanup
// must then leave exactly one copy of every key.
TEST(AdaptiveShardedSet, MovePreservesUpdatesRoutedDuringCopy) {
  Adapt4 set(4096);
  set.set_adaptive_enabled(false);
  std::set<Key> oracle;
  for (Key k = 0; k < 64; ++k) {
    ASSERT_TRUE(set.insert(k));
    oracle.insert(k);
  }
  struct Ctx {
    Adapt4* set;
    std::set<Key>* oracle;
  } ctx{&set, &oracle};
  set.set_migration_hook(
      [](void* p, int stage) {
        if (stage != Adapt4::kMigHookCopied) return;
        auto* c = static_cast<Ctx*>(p);
        // Inside the copy window: keys in the migrating range double-route
        // into the source and the dirty-key log, after the copy's cut.
        for (Key k = 64; k < 72; ++k) {
          ASSERT_TRUE(c->set->insert(k));
          c->oracle->insert(k);
        }
        ASSERT_TRUE(c->set->erase(0));
        c->oracle->erase(0);
      },
      &ctx);
  const auto before = Counters::snapshot();
  EXPECT_TRUE(set.rebalance_once(0, 1));
  set.set_migration_hook(nullptr, nullptr);
  const auto after = Counters::snapshot();
  EXPECT_EQ(after[Counter::kShardDoubleRoutes],
            before[Counter::kShardDoubleRoutes] + 8);
  EXPECT_EQ(set.map_generation(), 2u);
  EXPECT_EQ(set.size(), static_cast<std::int64_t>(oracle.size()));
  for (Key k = 0; k < 72; ++k) {
    EXPECT_EQ(set.contains(k), oracle.count(k) > 0) << k;
  }
  std::int64_t raw = 0;
  for (int s = 0; s < 4; ++s) raw += set.shard_at(s).size();
  EXPECT_EQ(raw, static_cast<std::int64_t>(oracle.size()))
      << "a moved key kept a copy in both shards";
}

}  // namespace
}  // namespace cbat
