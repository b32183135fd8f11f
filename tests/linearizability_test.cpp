// History-based linearizability checking for cross-shard composite
// queries (ISSUE 5 / ROADMAP "cross-shard linearizable snapshots").
//
// The history class is deliberately restricted so the check is exact and
// cheap: ONE writer thread applies a known sequence of updates over a
// small tracked key set, readers observe the full tracked-key membership
// through one Snapshot each.  For such histories a legal total order
// exists iff every observation equals some prefix of the writer's
// sequence, where the prefix index is bounded below by the number of
// writer ops already *completed* when the snapshot was acquired and above
// by the number already *begun* when its queries returned (the real-time
// constraint of linearizability).
//
// The deterministic tests drive the real Snapshot acquisition code
// through its mid-acquire test hook: two sequential inserts (a then b,
// landing in the first and last shard) are injected after the first
// shard's root is pinned.  The quiescent policy then observes {b present,
// a absent} — b's insert began after a's completed, so no prefix matches
// and the checker rejects the history.  The epoch-stamped policy resolves
// the last shard's root back past the cut and observes the empty prefix:
// same interleaving, linearizable history.  The concurrent test runs the
// same checker over a free-running writer/reader schedule (TSan-gated in
// CI alongside the sharded_set suite).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/bat_tree.h"
#include "same_key_race.h"
#include "shard/sharded_set.h"
#include "util/counters.h"
#include "util/random.h"

namespace cbat {
namespace {

using Quiescent4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kQuiescent>;
using Lin4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kLinearizable>;

// One reader observation: the membership of every tracked key as seen
// through a single Snapshot, plus the real-time bounds on which writer
// prefix may explain it.
struct TrackedObservation {
  std::int64_t done_at_inv = 0;     // writer ops completed before acquire
  std::int64_t started_at_resp = 0;  // writer ops begun when queries ended
  std::vector<bool> members;
};

// prefix_states[j] is the tracked-key membership after the writer's first
// j operations.  The observation linearizes iff some in-bounds prefix
// reproduces it exactly.
bool observation_linearizes(
    const std::vector<std::vector<bool>>& prefix_states,
    const TrackedObservation& o) {
  const auto hi = std::min<std::int64_t>(
      o.started_at_resp, static_cast<std::int64_t>(prefix_states.size()) - 1);
  for (std::int64_t j = o.done_at_inv; j <= hi; ++j) {
    if (prefix_states[static_cast<std::size_t>(j)] == o.members) return true;
  }
  return false;
}

// --- deterministic interleaving through the mid-acquire hook --------------

constexpr Key kKeyspace = 4000;  // Sharded4 width 1000
constexpr Key kKeyA = 100;       // shard 0
constexpr Key kKeyB = 3900;      // shard 3

// Writer sequence: insert a, then insert b (sequential, so a's completion
// precedes b's invocation).  Prefix states over {a, b}.
std::vector<std::vector<bool>> pair_prefix_states() {
  return {{false, false}, {true, false}, {true, true}};
}

// Acquires one Snapshot of an initially empty set, injecting both inserts
// after shard 0's root is pinned and before shard 1's is read.  Returns
// the observation with its (trivially known) real-time bounds: no op had
// completed at acquisition, both had begun by the response.
template <class Set>
TrackedObservation observe_with_mid_acquire_writes() {
  Set set(kKeyspace);
  const auto hook = [](void* ctx, int next_shard) {
    if (next_shard != 1) return;
    auto* s = static_cast<Set*>(ctx);
    s->insert(kKeyA);  // completes before insert(kKeyB) is invoked
    s->insert(kKeyB);
  };
  typename Set::Snapshot snap(set, hook, &set);
  // The hook ran inside acquisition, so both inserts precede every query
  // made through the snapshot.
  EXPECT_TRUE(set.contains(kKeyA) && set.contains(kKeyB));
  TrackedObservation o;
  o.done_at_inv = 0;
  o.started_at_resp = 2;
  o.members = {snap.contains(kKeyA), snap.contains(kKeyB)};
  // Whatever the cut, one pinned snapshot must at least be internally
  // consistent: size agrees with the tracked memberships (the set never
  // holds untracked keys here).
  EXPECT_EQ(snap.size(),
            static_cast<std::int64_t>(o.members[0]) +
                static_cast<std::int64_t>(o.members[1]));
  return o;
}

// The quiescent cut reads shard roots one after another, so it observes
// the *second* insert while missing the *first* — a state no prefix of
// the writer's sequence explains.  This is the violation the epoch cut
// exists to close; if this test ever fails, the quiescent path silently
// became linearizable and the "-Lin" variants (and their acquisition
// cost) are dead weight.
TEST(CrossShardLinearizability, CheckerRejectsQuiescentCut) {
  const TrackedObservation o =
      observe_with_mid_acquire_writes<Quiescent4>();
  EXPECT_FALSE(o.members[0]) << "shard 0 was pinned before insert(a)";
  EXPECT_TRUE(o.members[1]) << "shard 3 was pinned after insert(b)";
  EXPECT_FALSE(observation_linearizes(pair_prefix_states(), o))
      << "{b without a} must not linearize: insert(a) completed before "
         "insert(b) began";
}

// Same interleaving, epoch-stamped acquisition: both inserts are stamped
// after the snapshot's counter increment, so resolving shard 3's root
// walks its history back past b's installation and the observation is the
// (legal) empty prefix.
TEST(CrossShardLinearizability, CheckerAcceptsEpochStampedCut) {
  const TrackedObservation o = observe_with_mid_acquire_writes<Lin4>();
  EXPECT_FALSE(o.members[0]);
  EXPECT_FALSE(o.members[1]) << "b's root must resolve past the cut";
  EXPECT_TRUE(observation_linearizes(pair_prefix_states(), o));
}

// --- epoch bookkeeping ----------------------------------------------------

TEST(CrossShardLinearizability, EpochAdvancesPerAcquisitionAndCutsPin) {
  Lin4 set(kKeyspace);
  EXPECT_EQ(set.current_epoch(), 1u);
  ASSERT_TRUE(set.insert(kKeyA));

  Lin4::Snapshot s1(set);
  EXPECT_EQ(s1.epoch(), 1u);
  EXPECT_EQ(set.current_epoch(), 2u);
  // Completed before acquisition: included.
  EXPECT_TRUE(s1.contains(kKeyA));
  EXPECT_EQ(s1.size(), 1);

  ASSERT_TRUE(set.insert(kKeyB));
  Lin4::Snapshot s2(set);
  EXPECT_EQ(s2.epoch(), 2u);
  EXPECT_TRUE(s2.contains(kKeyB));
  EXPECT_EQ(s2.size(), 2);
  // The older cut is immutable.
  EXPECT_FALSE(s1.contains(kKeyB));
  EXPECT_EQ(s1.size(), 1);

  // Quiescent forests never advance the counter (acquisition is a plain
  // root sweep), but their write path stamps all the same.
  Quiescent4 q(kKeyspace);
  q.insert(kKeyA);
  Quiescent4::Snapshot qs(q);
  EXPECT_EQ(qs.epoch(), 0u);
  EXPECT_EQ(q.current_epoch(), 1u);
}

// Resolution must hand back the current root in the no-race case even
// after the counter has advanced far past the stamps in the tree: a
// std::set oracle equivalence run with snapshots interleaved to keep the
// epoch moving.
TEST(CrossShardLinearizability, LinearizableForestMatchesOracle) {
  Lin4 set(kKeyspace);
  std::set<Key> oracle;
  Xoshiro256 rng(2026);
  for (int step = 0; step < 4000; ++step) {
    const Key k = static_cast<Key>(rng.below(kKeyspace));
    if (rng.below(3) == 0) {
      ASSERT_EQ(set.erase(k), oracle.erase(k) > 0) << k;
    } else {
      ASSERT_EQ(set.insert(k), oracle.insert(k).second) << k;
    }
    if (step % 200 != 199) continue;
    Lin4::Snapshot snap(set);
    ASSERT_EQ(snap.size(), static_cast<std::int64_t>(oracle.size()));
    for (Key q : {Key{0}, Key{999}, Key{1000}, Key{2500}, Key{3999}}) {
      ASSERT_EQ(snap.contains(q), oracle.count(q) > 0) << q;
      ASSERT_EQ(snap.rank(q),
                static_cast<std::int64_t>(std::distance(
                    oracle.begin(), oracle.upper_bound(q))))
          << q;
    }
    const std::int64_t n = snap.size();
    if (n > 0) {
      const auto mid = snap.select((n + 1) / 2);
      ASSERT_TRUE(mid.has_value());
      ASSERT_EQ(snap.rank(*mid), (n + 1) / 2);
    }
  }
}

// --- point reads help-stamp the root they read ---------------------------

// contains must help-stamp the root it reads.  The state below is the one
// an inserter leaves between its root CAS and its stamp (the
// "bat.root_stamp" fault site in bat_tree.h): shard 0's newest root holds
// kKeyA but carries no stamp, and links back to a stamped root without it.
// A point read that reports kKeyA without stamping lets the composite
// query that starts after it stamp that root above its own epoch, walk
// back past it and miss kKeyA — an inversion no order of the two reads and
// the pending insert explains.  Setting the stamp back to kEpochTbd on a
// quiet forest reproduces that state without racing the inserter.
TEST(CrossShardLinearizability, ContainsHelpStampsTheRootItReads) {
  Lin4 set(kKeyspace);
  ASSERT_TRUE(set.insert(kKeyA));
  {
    EbrGuard g;
    const auto* r = set.shard_at(0).root_version_unsafe();
    ASSERT_NE(r->prev_root, nullptr);
    ASSERT_FALSE(version_contains<SizeAug>(r->prev_root, kKeyA));
    r->epoch.store(kEpochTbd, std::memory_order_release);
  }
  ASSERT_TRUE(set.contains(kKeyA));
  const Lin4::Snapshot snap(set);
  EXPECT_TRUE(snap.contains(kKeyA));
  EXPECT_EQ(snap.range_count(0, kKeyspace - 1), 1);
  EXPECT_EQ(set.rank(kKeyA), 1);
}

// --- concurrent history check (TSan-gated in CI) --------------------------

// Free-running schedule: one writer applies a precomputed toggle sequence
// over tracked keys spread across all four shards, publishing begun /
// completed counts; readers acquire linearizable snapshots and record the
// tracked membership with those counts as real-time bounds.  Every
// recorded observation must be explained by an in-bounds writer prefix.
TEST(CrossShardLinearizability, ConcurrentSingleWriterHistoryLinearizes) {
  constexpr int kTracked = 8;
  constexpr int kOps = 6000;
  constexpr int kReaders = 2;
  std::vector<Key> tracked;
  for (int i = 0; i < kTracked; ++i) {
    tracked.push_back(static_cast<Key>(i * 500 + 100));  // 2 keys per shard
  }

  // Precompute the toggle sequence and every prefix state.
  std::vector<std::vector<bool>> prefix_states;
  std::vector<std::pair<int, bool>> ops;  // (tracked index, is_insert)
  {
    std::vector<bool> state(kTracked, false);
    prefix_states.push_back(state);
    Xoshiro256 rng(7);
    for (int j = 0; j < kOps; ++j) {
      const int i = static_cast<int>(rng.below(kTracked));
      const bool is_insert = !state[static_cast<std::size_t>(i)];
      ops.emplace_back(i, is_insert);
      state[static_cast<std::size_t>(i)] = is_insert;
      prefix_states.push_back(state);
    }
  }

  Lin4 set(kKeyspace);
  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int j = 0; j < kOps; ++j) {
      started.store(j + 1, std::memory_order_seq_cst);
      const auto [i, is_insert] = ops[static_cast<std::size_t>(j)];
      const Key k = tracked[static_cast<std::size_t>(i)];
      // The toggle sequence makes every update effective, so prefix
      // states track the set exactly.
      ASSERT_TRUE(is_insert ? set.insert(k) : set.erase(k)) << j;
      done.store(j + 1, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::vector<TrackedObservation>> logs(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto& log = logs[static_cast<std::size_t>(r)];
      log.reserve(4096);
      // do-while: on a single-core host the writer may finish before this
      // thread first runs; one post-quiescence observation is still a
      // valid (and checkable) history entry.
      do {
        TrackedObservation o;
        o.done_at_inv = done.load(std::memory_order_seq_cst);
        Lin4::Snapshot snap(set);
        o.members.reserve(kTracked);
        std::int64_t present = 0;
        for (const Key k : tracked) {
          const bool m = snap.contains(k);
          o.members.push_back(m);
          present += m ? 1 : 0;
        }
        // Internal consistency of the pinned cut: only tracked keys ever
        // enter the set.
        ASSERT_EQ(snap.size(), present);
        o.started_at_resp = started.load(std::memory_order_seq_cst);
        log.push_back(std::move(o));
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  std::size_t checked = 0;
  for (const auto& log : logs) {
    for (const auto& o : log) {
      ASSERT_TRUE(observation_linearizes(prefix_states, o))
          << "observation #" << checked << " bounds [" << o.done_at_inv
          << ", " << o.started_at_resp << "]";
      ++checked;
    }
  }
  ASSERT_GT(checked, 0u);
}

// A one-shot count over the tracked keys of shards [first, last], with
// each writer's real-time bounds taken around the query.
struct CountObservation {
  int first = 0;
  int last = 0;
  std::int64_t done_at_inv[2] = {};
  std::int64_t started_at_resp[2] = {};
  std::int64_t count = 0;
};

// Two writers over *disjoint* tracked key sets (each spanning all four
// shards, so both contend on every shard's root stamping), on the
// linearizable forest.  Disjoint ownership keeps the snapshot check exact
// — each writer's projection of an observation must independently match
// one of that writer's prefixes within its own real-time bounds.  The
// reader also issues one-shot queries that take the span cut: a two-shard
// range_aggregate and a one-shard range_count.  Each count must be the sum
// of two in-bounds prefix counts, one per writer.
TEST(CrossShardLinearizability, ConcurrentTwoWriterHistoryLinearizes) {
  using LinForest4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kLinearizable>;
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 4;  // one tracked key per shard per writer
  constexpr int kOps = 4000;

  std::vector<std::vector<Key>> tracked(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      tracked[static_cast<std::size_t>(w)].push_back(
          static_cast<Key>(i * 1000 + 100 + w * 250));
    }
  }
  std::vector<std::vector<std::vector<bool>>> prefix_states(kWriters);
  std::vector<std::vector<std::pair<int, bool>>> ops(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    std::vector<bool> state(kPerWriter, false);
    prefix_states[static_cast<std::size_t>(w)].push_back(state);
    Xoshiro256 rng(100 + static_cast<std::uint64_t>(w));
    for (int j = 0; j < kOps; ++j) {
      const int i = static_cast<int>(rng.below(kPerWriter));
      const bool is_insert = !state[static_cast<std::size_t>(i)];
      ops[static_cast<std::size_t>(w)].emplace_back(i, is_insert);
      state[static_cast<std::size_t>(i)] = is_insert;
      prefix_states[static_cast<std::size_t>(w)].push_back(state);
    }
  }

  LinForest4 set(kKeyspace);
  std::atomic<std::int64_t> started[kWriters] = {};
  std::atomic<std::int64_t> done[kWriters] = {};
  std::atomic<bool> stop{false};
  std::atomic<int> writers_left{kWriters};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int j = 0; j < kOps; ++j) {
        started[w].store(j + 1, std::memory_order_seq_cst);
        const auto [i, is_insert] = ops[static_cast<std::size_t>(w)]
                                       [static_cast<std::size_t>(j)];
        const Key k =
            tracked[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)];
        ASSERT_TRUE(is_insert ? set.insert(k) : set.erase(k)) << w << "/" << j;
        done[w].store(j + 1, std::memory_order_seq_cst);
      }
      if (writers_left.fetch_sub(1) == 1) {
        stop.store(true, std::memory_order_release);
      }
    });
  }

  std::vector<TrackedObservation> log[kWriters];
  std::vector<CountObservation> counts;
  std::thread reader([&] {
    // do-while, like the single-writer test: never record zero history.
    do {
      std::int64_t inv[kWriters];
      for (int w = 0; w < kWriters; ++w) {
        inv[w] = done[w].load(std::memory_order_seq_cst);
      }
      LinForest4::Snapshot snap(set);
      std::int64_t present = 0;
      std::vector<bool> members[kWriters];
      for (int w = 0; w < kWriters; ++w) {
        for (const Key k : tracked[static_cast<std::size_t>(w)]) {
          const bool m = snap.contains(k);
          members[w].push_back(m);
          present += m ? 1 : 0;
        }
      }
      ASSERT_EQ(snap.size(), present);
      for (int w = 0; w < kWriters; ++w) {
        TrackedObservation o;
        o.done_at_inv = inv[w];
        o.started_at_resp = started[w].load(std::memory_order_seq_cst);
        o.members = std::move(members[w]);
        log[w].push_back(std::move(o));
      }
      for (const bool two_shards : {true, false}) {
        CountObservation c;
        c.first = two_shards ? 0 : 2;
        c.last = two_shards ? 1 : 2;
        for (int w = 0; w < kWriters; ++w) {
          c.done_at_inv[w] = done[w].load(std::memory_order_seq_cst);
        }
        const Key lo = c.first * 1000;
        const Key hi = c.last * 1000 + 999;
        c.count = two_shards ? set.range_aggregate(lo, hi)
                             : set.range_count(lo, hi);
        for (int w = 0; w < kWriters; ++w) {
          c.started_at_resp[w] = started[w].load(std::memory_order_seq_cst);
        }
        counts.push_back(c);
      }
    } while (!stop.load(std::memory_order_acquire));
  });
  for (auto& t : writers) t.join();
  reader.join();

  // Writer w's tracked keys in shards [first, last] after its first j ops
  // (its i-th tracked key lives in shard i).
  const auto in_span = [&](int w, std::int64_t j, int first, int last) {
    const auto& st = prefix_states[static_cast<std::size_t>(w)]
                                  [static_cast<std::size_t>(j)];
    std::int64_t n = 0;
    for (int i = first; i <= last; ++i) n += st[static_cast<std::size_t>(i)];
    return n;
  };
  ASSERT_GT(counts.size(), 0u);
  for (const CountObservation& c : counts) {
    std::set<std::int64_t> reach[kWriters];
    for (int w = 0; w < kWriters; ++w) {
      const std::int64_t hi = std::min<std::int64_t>(c.started_at_resp[w],
                                                     kOps);
      for (std::int64_t j = c.done_at_inv[w]; j <= hi; ++j) {
        reach[w].insert(in_span(w, j, c.first, c.last));
      }
    }
    bool ok = false;
    for (const std::int64_t a : reach[0]) {
      ok = ok || reach[1].count(c.count - a) > 0;
    }
    ASSERT_TRUE(ok) << "count " << c.count << " over shards " << c.first
                    << ".." << c.last;
  }

  for (int w = 0; w < kWriters; ++w) {
    ASSERT_GT(log[w].size(), 0u);
    for (const auto& o : log[w]) {
      ASSERT_TRUE(observation_linearizes(
          prefix_states[static_cast<std::size_t>(w)], o))
          << "writer " << w << " bounds [" << o.done_at_inv << ", "
          << o.started_at_resp << "]";
    }
  }
}

// --- stale cache races a root CAS (epoch-stamped aggregate cache) ---------

// The aggregate cache accepts an entry only when its stored stamp equals
// the stamp of the root the *caller* has pinned (aggregate_cache.h).  The
// deterministic test below constructs the exact interleaving that check
// exists for — a cache fill racing a root CAS — and fails if the stamp
// validation is removed (make load_range ignore `stamp`).

using CachedLin4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kLinearizable,
                              ReadPath::kCached>;

// Range cache: a snapshot pins shard 0's root, an update CASes that root
// mid-acquisition, and the snapshot then answers (correctly, on its old
// cut) and MEMOIZES that answer under the old root's stamp — a stale
// entry written into the cache after the root has already moved.  A
// fresh query, whose pinned root carries the new fetch_add-minted stamp,
// probes the same entry and must reject it: with the stamp check gone it
// would serve the pre-update aggregate.
TEST(StaleAggregateCache, RangeEntryOutlivedByRootCas) {
  constexpr Key kLo = 100, kHi = 900;  // inside shard 0 (width 1000)
  CachedLin4 set(kKeyspace);
  for (Key k = kLo; k <= kHi; k += 100) ASSERT_TRUE(set.insert(k));
  const std::int64_t before = 9;
  ASSERT_EQ(set.range_aggregate(kLo, kHi), before);

  // Pin shard 0, then land an in-range insert before shard 1 is read.
  const auto hook = [](void* ctx, int next_shard) {
    if (next_shard != 1) return;
    ASSERT_TRUE(static_cast<CachedLin4*>(ctx)->insert(kLo + 50));
  };
  CachedLin4::Snapshot snap(set, hook, &set);
  // The snapshot's cut predates the insert; its answer — which it also
  // stores into the range cache under the OLD root's stamp — is `before`.
  EXPECT_EQ(snap.range_aggregate(kLo, kHi), before);
  // A fresh read pins the post-CAS root: the cached entry's stamp no
  // longer matches and the aggregate must be recomputed.
  EXPECT_EQ(set.range_aggregate(kLo, kHi), before + 1);
}

// Concurrent variant (TSan-gated in CI with the rest of this suite): the
// cached read path must serve linearizable answers while updates re-stamp
// roots under it.  Single writer, known toggle sequence; readers observe
// through the PUBLIC composite-query API — size(), a whole-keyspace
// range_aggregate() (its boundary pieces served by the epoch-stamped
// cache), and range_count() — and every observation must equal the
// tracked population of some writer prefix within its real-time bounds.
TEST(StaleAggregateCache, ConcurrentCachedReadsLinearize) {
  constexpr int kTracked = 8;
  constexpr int kOps = 6000;
  constexpr int kReaders = 2;
  std::vector<Key> tracked;
  for (int i = 0; i < kTracked; ++i) {
    tracked.push_back(static_cast<Key>(i * 500 + 100));
  }
  std::vector<std::int64_t> prefix_pop;  // population after j writer ops
  std::vector<std::pair<int, bool>> ops;
  {
    std::vector<bool> state(kTracked, false);
    std::int64_t pop = 0;
    prefix_pop.push_back(pop);
    Xoshiro256 rng(11);
    for (int j = 0; j < kOps; ++j) {
      const int i = static_cast<int>(rng.below(kTracked));
      const bool is_insert = !state[static_cast<std::size_t>(i)];
      ops.emplace_back(i, is_insert);
      state[static_cast<std::size_t>(i)] = is_insert;
      pop += is_insert ? 1 : -1;
      prefix_pop.push_back(pop);
    }
  }

  CachedLin4 set(kKeyspace);
  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int j = 0; j < kOps; ++j) {
      started.store(j + 1, std::memory_order_seq_cst);
      const auto [i, is_insert] = ops[static_cast<std::size_t>(j)];
      const Key k = tracked[static_cast<std::size_t>(i)];
      ASSERT_TRUE(is_insert ? set.insert(k) : set.erase(k)) << j;
      done.store(j + 1, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<std::int64_t> checked{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(77 + static_cast<std::uint64_t>(r));
      do {
        // One observation per query: each composite read linearizes at
        // its own instant, so each gets its own real-time bounds.
        const std::int64_t inv = done.load(std::memory_order_seq_cst);
        std::int64_t obs;
        switch (rng.below(3)) {
          case 0:
            obs = set.size();
            break;
          case 1:
            obs = set.range_aggregate(0, kKeyspace - 1);
            break;
          default:
            obs = set.range_count(0, kKeyspace - 1);
            break;
        }
        const std::int64_t resp = started.load(std::memory_order_seq_cst);
        bool ok = false;
        const auto hi = std::min<std::int64_t>(
            resp, static_cast<std::int64_t>(prefix_pop.size()) - 1);
        for (std::int64_t j = inv; j <= hi && !ok; ++j) {
          ok = prefix_pop[static_cast<std::size_t>(j)] == obs;
        }
        ASSERT_TRUE(ok) << "population " << obs << " not reachable in ["
                        << inv << ", " << resp << "]";
        // relaxed: statistics counter, read after join().
        checked.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_GT(checked.load(), 0);

  // Quiescence: with the writer joined, every read path — cached and
  // recomputed, on this thread and a fresh one — must agree on the final
  // state.
  const std::int64_t final_pop = prefix_pop.back();
  EXPECT_EQ(set.size(), final_pop);
  EXPECT_EQ(set.range_aggregate(0, kKeyspace - 1), final_pop);
  std::thread([&] { EXPECT_EQ(set.size(), final_pop); }).join();
}

// --- migration protocol: epoch-cut key moves (ISSUE 7) --------------------

// The adaptive forest moves key ranges between shards while updates and
// snapshots run.  These tests drive the real migrate() through its
// phase hook (set_migration_hook) and check that the cut stays
// linearizable at EVERY protocol boundary.  They are written to fail if
// double-routing is disabled: the hook lands updates inside the moving
// range during the copy phase, and only the dirty log's replay makes the
// destination's copy exact — remove mig_log()/replay_log() and the
// post-flip membership diverges from the oracle.

using AdaptLin4 = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kLinearizable,
                             ReadPath::kDirect, /*Adaptive=*/true>;

// Shared state for the deterministic hook: the set, a same-thread oracle,
// and the per-stage updates to apply.  The hook runs on the migrator's
// own thread, so in-range updates are legal only while the range is not
// sealed (kCopyBegin/kCopied before the seal, kOpened/kCleaned after the
// flip); sealed stages apply out-of-range updates, which never park.
struct MigHookState {
  AdaptLin4* set = nullptr;
  std::set<Key>* oracle = nullptr;
  std::vector<int> stages;
};

void check_against_oracle(const AdaptLin4& set, const std::set<Key>& oracle,
                          int stage) {
  // Single-threaded history: a linearizable snapshot taken between
  // operations must equal the oracle exactly, whatever migration phase
  // the forest is in.
  AdaptLin4::Snapshot snap(set);
  ASSERT_EQ(snap.size(), static_cast<std::int64_t>(oracle.size()))
      << "stage " << stage;
  for (Key k : {Key{100}, Key{506}, Key{515}, Key{650}, Key{705}, Key{905},
                Key{996}, Key{2105}, Key{3900}}) {
    ASSERT_EQ(snap.contains(k), oracle.count(k) > 0)
        << "key " << k << " at stage " << stage;
  }
  ASSERT_EQ(snap.range_count(0, kKeyspace - 1),
            static_cast<std::int64_t>(oracle.size()))
      << "stage " << stage;
}

void mig_stage_hook(void* ctx, int stage) {
  auto* st = static_cast<MigHookState*>(ctx);
  st->stages.push_back(stage);
  AdaptLin4& set = *st->set;
  std::set<Key>& oracle = *st->oracle;
  // Every stage op TOGGLES its key, so it is effective (and asserted so)
  // no matter how many migrations ran before — a silently lost update
  // cannot hide behind an already-correct membership.
  auto toggle = [&](Key k) {
    if (oracle.count(k) > 0) {
      ASSERT_TRUE(set.erase(k)) << k << " at stage " << stage;
      oracle.erase(k);
    } else {
      ASSERT_TRUE(set.insert(k)) << k << " at stage " << stage;
      oracle.insert(k);
    }
  };
  switch (stage) {
    case AdaptLin4::kMigHookCopyBegin:
      // Copy phase, pre-bulk-copy: an in-range update double-routes (it
      // lands in the source shard and is logged for replay).
      toggle(996);
      toggle(515);
      break;
    case AdaptLin4::kMigHookCopied:
      // Copy phase, AFTER the bulk copy seeded the destination: these
      // land in the source and reach the destination only through the
      // dirty-log replay — the stage that catches a disabled
      // double-route (705 erases a key the bulk copy already moved; 506
      // inserts one it never saw).
      toggle(705);
      toggle(506);
      break;
    case AdaptLin4::kMigHookSealed:
    case AdaptLin4::kMigHookReplayed:
    case AdaptLin4::kMigHookFlipped:
      // Range sealed: in-range updates would park on this very thread,
      // so exercise out-of-range ones (they must never block).
      toggle(2105 + static_cast<Key>(stage));
      break;
    case AdaptLin4::kMigHookOpened:
      // Phase kDone: in-range updates resume and must route by the NEW
      // map (the key now lives in the destination shard).
      toggle(996);
      toggle(650);
      break;
    case AdaptLin4::kMigHookCleaned:
      toggle(650);
      break;
    default:
      break;
  }
  check_against_oracle(set, oracle, stage);
}

// One forced boundary move with updates and snapshots injected at every
// protocol stage; membership must match the oracle at each cut and after
// the move (both migration directions).
TEST(MigrationLinearizability, EveryCutStageMatchesOracle) {
  AdaptLin4 set(kKeyspace);
  set.set_adaptive_enabled(false);  // manual migrations only
  std::set<Key> oracle;
  for (Key k = 5; k < 1000; k += 10) {  // 100 keys, all in shard 0
    ASSERT_TRUE(set.insert(k));
    oracle.insert(k);
  }
  ASSERT_TRUE(set.insert(3900));
  oracle.insert(3900);

  MigHookState st{&set, &oracle, {}};
  set.set_migration_hook(&mig_stage_hook, &st);
  ASSERT_EQ(set.map_generation(), 1u);
  ASSERT_TRUE(set.rebalance_once(0, 1));  // move shard 0's upper half right
  ASSERT_EQ(set.map_generation(), 2u);
  // The hook fired at every protocol boundary, in order.
  ASSERT_EQ(st.stages,
            (std::vector<int>{
                AdaptLin4::kMigHookCopyBegin, AdaptLin4::kMigHookCopied,
                AdaptLin4::kMigHookSealed, AdaptLin4::kMigHookReplayed,
                AdaptLin4::kMigHookFlipped, AdaptLin4::kMigHookOpened,
                AdaptLin4::kMigHookCleaned}));
  check_against_oracle(set, oracle, /*stage=*/-1);

  // Move the range back (dst == src - 1 exercises the other median
  // branch); the same per-stage checks run again on the reverse cut.
  st.stages.clear();
  ASSERT_TRUE(set.rebalance_once(1, 0));
  ASSERT_EQ(set.map_generation(), 3u);
  ASSERT_EQ(st.stages.size(), 7u);
  check_against_oracle(set, oracle, /*stage=*/-2);

  // Full membership sweep through the per-key read path: source-shard
  // stale copies must have been retired, destination copies adopted.
  set.set_migration_hook(nullptr, nullptr);
  for (Key k = 0; k < kKeyspace; ++k) {
    ASSERT_EQ(set.contains(k), oracle.count(k) > 0) << k;
  }
}

// Free-running history check (TSan-gated in CI): one writer toggles
// tracked keys inside the migrating range, a migrator ping-pongs the
// boundary between shards 0 and 1, readers snapshot and record
// real-time-bounded observations.  Every observation must be explained
// by an in-bounds writer prefix — cuts before, during, and after a move
// all accept; a lost double-route shows up as an inexplicable mixed
// state.
TEST(MigrationLinearizability, ConcurrentHistoryLinearizesAcrossMoves) {
  constexpr int kTracked = 8;
  constexpr int kOps = 4000;
  std::vector<Key> tracked;
  for (int i = 0; i < kTracked; ++i) {
    tracked.push_back(static_cast<Key>(i * 125 + 2));  // shard 0, not %5==0
  }
  std::vector<std::vector<bool>> prefix_states;
  std::vector<std::pair<int, bool>> ops;
  {
    std::vector<bool> state(kTracked, false);
    prefix_states.push_back(state);
    Xoshiro256 rng(19);
    for (int j = 0; j < kOps; ++j) {
      const int i = static_cast<int>(rng.below(kTracked));
      const bool is_insert = !state[static_cast<std::size_t>(i)];
      ops.emplace_back(i, is_insert);
      state[static_cast<std::size_t>(i)] = is_insert;
      prefix_states.push_back(state);
    }
  }

  AdaptLin4 set(kKeyspace);
  set.set_adaptive_enabled(false);  // the migrator thread drives moves
  // Static ballast in shard 0 so every boundary move has keys to split;
  // multiples of 5 never collide with the tracked keys.
  std::int64_t ballast = 0;
  for (Key k = 0; k < 1000; k += 5) {
    ASSERT_TRUE(set.insert(k));
    ++ballast;
  }

  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int j = 0; j < kOps; ++j) {
      started.store(j + 1, std::memory_order_seq_cst);
      const auto [i, is_insert] = ops[static_cast<std::size_t>(j)];
      const Key k = tracked[static_cast<std::size_t>(i)];
      ASSERT_TRUE(is_insert ? set.insert(k) : set.erase(k)) << j;
      done.store(j + 1, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });

  std::atomic<int> moves{0};
  std::thread migrator([&] {
    // Keep going past `stop` until at least one move has landed: on a
    // single-hardware-thread host the writer can finish its whole run
    // before this thread is ever scheduled, and a zero-move pass would
    // make the history check vacuous.  Once the writer is done the set
    // is quiescent and the ballast keeps shard 0 above the split
    // minimum, so a move is guaranteed to succeed and the loop exits.
    while (!stop.load(std::memory_order_acquire) || moves.load() == 0) {
      if (set.rebalance_once(0, 1)) moves.fetch_add(1);
      if (set.rebalance_once(1, 0)) moves.fetch_add(1);
    }
  });

  std::vector<TrackedObservation> log;
  std::thread reader([&] {
    do {
      TrackedObservation o;
      o.done_at_inv = done.load(std::memory_order_seq_cst);
      AdaptLin4::Snapshot snap(set);
      std::int64_t present = 0;
      for (const Key k : tracked) {
        const bool m = snap.contains(k);
        o.members.push_back(m);
        present += m ? 1 : 0;
      }
      // A cut mid-migration must still count every key exactly once
      // (duplicates in the destination shard are outside its owned range
      // until the flip; stale source copies outside it after).
      ASSERT_EQ(snap.size(), ballast + present);
      o.started_at_resp = started.load(std::memory_order_seq_cst);
      log.push_back(std::move(o));
    } while (!stop.load(std::memory_order_acquire));
  });

  writer.join();
  migrator.join();
  reader.join();

  ASSERT_GT(moves.load(), 0) << "no boundary move ever ran";
  ASSERT_GT(log.size(), 0u);
  for (const auto& o : log) {
    ASSERT_TRUE(observation_linearizes(prefix_states, o))
        << "bounds [" << o.done_at_inv << ", " << o.started_at_resp << "]";
  }
  // Quiescent final sweep: membership equals the last writer prefix.
  const std::vector<bool>& fin = prefix_states.back();
  for (int i = 0; i < kTracked; ++i) {
    ASSERT_EQ(set.contains(tracked[static_cast<std::size_t>(i)]),
              fin[static_cast<std::size_t>(i)])
        << i;
  }
}

// --- unsuccessful updates linearize at a root read --------------------------

// An unsuccessful update returns without Propagate only when Root.version
// already shows its outcome; otherwise it propagates the arrival its
// search observed.  Two threads race insert(k), then erase(k), over a key
// set (tests/same_key_race.h), and every loser must observe the state it
// reported through the structure's own queries.  With the root check
// mutated to always agree, a loser whose search saw the winner's leaf
// returns before the winner's Propagate reaches the root, and its check
// fails.  Prints how often the fallback branch (a failed update that still
// propagated) fired: Propagate calls minus successful updates.
constexpr Key kRaceKeyspace = 1 << 14;
constexpr int kRaceKeys = 1500;

// Evens are prefilled so the race runs on a tree of realistic depth; the
// raced keys are odd, spread over the keyspace.
template <class Set>
std::int64_t prefill_evens(Set& s) {
  std::int64_t n = 0;
  for (Key k = 0; k < kRaceKeyspace; k += 2) n += s.insert(k) ? 1 : 0;
  return n;
}

std::vector<RacePhase> insert_then_erase_phases() {
  std::vector<RacePhase> phases;
  for (int i = 0; i < kRaceKeys; ++i) {
    const Key k = static_cast<Key>((i * 7919) % (kRaceKeyspace / 2)) * 2 + 1;
    phases.push_back({k, true});
    phases.push_back({k, false});
  }
  return phases;
}

template <class Set, class Observes>
void expect_losers_observe_their_outcome(Set& s, std::int64_t base,
                                         Observes observes) {
  const auto before = Counters::snapshot();
  const RaceResult r =
      race_same_keys(s, 2, insert_then_erase_phases(), observes);
  const auto after = Counters::snapshot();
  for (std::size_t i = 0; i < r.wins.size(); ++i) {
    ASSERT_EQ(r.wins[i], 1) << "phase " << i;
  }
  const std::uint64_t successes = r.wins.size();
  EXPECT_EQ(r.failed_updates, static_cast<int>(r.wins.size()));
  EXPECT_EQ(r.bad_observations, 0);
  const std::uint64_t props =
      after[Counter::kPropagateCalls] - before[Counter::kPropagateCalls];
  EXPECT_GE(props, successes);
  const unsigned long long fallbacks = props - successes;
  std::printf("same-key race: %d unsuccessful updates, %llu fell back\n",
              r.failed_updates, fallbacks);
  EXPECT_EQ(s.size(), base);
}

TEST(UnsuccessfulUpdates, SameKeyRaceLosersObserveTheirOutcome) {
  BatEagerDel<SizeAug> t;
  const std::int64_t base = prefill_evens(t);
  expect_losers_observe_their_outcome(t, base, [&](Key k, bool present) {
    const std::int64_t in = present ? 1 : 0;
    return t.contains(k) == present && t.size() == base + in &&
           t.rank(k) - t.rank(k - 1) == in;
  });
}

TEST(UnsuccessfulUpdates, SameKeyRaceLosersSnapshotTheirOutcomeOnLinForest) {
  using Lin16 = ShardedSet<Bat<SizeAug>, 16, SnapshotPolicy::kLinearizable>;
  Lin16 f(kRaceKeyspace);
  const std::int64_t base = prefill_evens(f);
  expect_losers_observe_their_outcome(f, base, [&](Key k, bool present) {
    const Lin16::Snapshot snap(f);
    const std::int64_t in = present ? 1 : 0;
    return snap.contains(k) == present && snap.size() == base + in &&
           snap.rank(k) - snap.rank_less(k) == in;
  });
}

}  // namespace
}  // namespace cbat
