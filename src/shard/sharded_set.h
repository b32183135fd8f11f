// ShardedSet — a keyspace-partitioned forest of BATs (ROADMAP: sharding).
//
// The key range is split into NumShards contiguous sub-ranges, each served
// by its own inner tree (default `Bat<SizeAug>`).  Updates touch exactly one
// shard, so update throughput scales with the shard count instead of
// serializing on one root Propagate; the price is that composite queries
// must merge per-shard snapshots.  The merge is exactly the per-subtree
// aggregate composition of Sela & Petrank's concurrent aggregate queries:
//
//   * size / range_count / range_aggregate: sum (combine) the per-shard
//     answers — contiguity makes every middle shard a fully-covered subtree
//     whose answer is its root version's supplementary field, O(1);
//   * rank: prefix-sum the sizes of the shards entirely below the key's
//     shard, then one O(log n) rank descent inside it;
//   * select: binary-search the shard-size prefix sums for the owning
//     shard, then one O(log n) `version_select` descent inside it.
//
// Consistency: each shard is a BAT, so every single-shard operation is
// linearizable.  A `Snapshot` holds one EBR guard for its whole life and
// pins the root of every shard its cut covers when it is constructed, so
// all queries through one Snapshot see the same immutable forest
// (multi-query consistency).  It takes its cut one of two ways.
//
// The epoch cut serves user-held Snapshots and the one-shot queries that
// need the whole forest (size, rank, select, range_collect) or more than
// two shards.  The SnapshotPolicy template parameter says how it is taken:
//
//   * kQuiescent (default): the roots are read one after another, so a
//     cross-shard query is quiescently consistent, not linearizable — it
//     sees every update that completed before the Snapshot was taken and
//     no update that started after it, but may observe a later update
//     while missing an earlier one on a different shard.
//   * kLinearizable: the set owns a global epoch counter that every
//     shard-root installation stamps (BatTree::set_epoch_source, vcas-
//     style deferred timestamps as in Wei et al.'s constant-time
//     snapshots).  The constructor fetch_adds the counter — the
//     snapshot's linearization point — then resolves each covered shard's
//     root to the newest version stamped at or before that epoch, walking
//     the root's prev_root history backward past installations stamped
//     after the cut.  Every composite query on the snapshot linearizes at
//     the fetch_add.  Updates pay one counter load plus one uncontended
//     stamp CAS per root refresh.
//
// The span cut serves one-shot range_count, range_aggregate and
// select_in_range whose keys lie in one or two shards, and floor/ceiling
// that hit in their own shard, on static forests.  It never touches the
// counter.  One shard: load the root, help-stamp it, use it.  Two shards:
// a validated double collect — load and help-stamp each root, reload
// both, and accept when neither moved; both roots were installed and
// stamped at the last stamp, which is where the query linearizes.  After
// kCollectAttempts failed validations it falls back to the epoch cut.
// Under kQuiescent the span cut is linearizable too (a root is current
// from its install until the next one), so it is stronger than the epoch
// cut it replaces there.  Adaptive forests keep the epoch cut for every
// query: their routing map would have to join the collect.
//
// Under kLinearizable, a reader that uses a root without a cut help-stamps
// it: the span cut here, contains and unsuccessful updates inside
// BatTree.  An unstamped root may still be stamped above a later epoch
// cut, which would then walk back past a key the reader already reported.
//
// Shard map: shard_of(k) = clamp(k / width) with width = ceil(keyspace /
// NumShards).  The keyspace defaults to `default_keyspace()` and can be
// adapted to a workload with `key_range_hint(max_key)` *while the set is
// empty* (the benchmark driver calls this before prefilling).  The map is
// monotone, so order statistics compose across shards by construction; keys
// outside [0, keyspace) are legal and simply land in the first or last
// shard.
//
// Adaptive sharding (the Adaptive template parameter; ROADMAP: hot-shard
// rebalancing).  The static contiguous split leaves a Zipfian hot shard
// reserializing updates; "-Adapt" forests replace it with a ShardMap
// indirection — an atomically-swappable boundary table — plus per-shard
// update-rate tracking and a piggybacked RebalanceController that sheds
// half of a hot shard's owned range to a cooler adjacent neighbor (a
// local rule in the spirit of Bampas et al.'s self-stabilizing
// containment-tree balancing: no global coordinator, convergence while
// traffic continues).  A boundary move runs the epoch-cut migration
// protocol (docs/ARCHITECTURE.md "The migration protocol"): freeze the
// move behind a phase word, copy the keys on a linearizable epoch cut
// with ordinary inserts, double-route in-flight updates through a
// dirty-key log, seal the range for one grace period to replay the log, then
// publish the new map and retire the moved keys' source-shard copies.
// Composite queries stay correct because every shard's contribution is
// restricted to the owned range of the map the snapshot pinned: a key's
// copies outside its owning shard's range are invisible on every cut, so
// any (map, roots) combination a snapshot can assemble is consistent.
//
// Read path (the ReadPath template parameter):
//
//   * kDirect (default): every composite query acquires its own Snapshot
//     and runs the per-shard merges itself.
//   * kCached ("-Cached" registry variants): the same, plus an
//     epoch-stamped AggregateCache (src/shard/aggregate_cache.h) that
//     memoizes the boundary shards' partial range_aggregate answers keyed
//     by the pinned root's stamp.  Shards switch to unique (fetch_add-
//     minted) stamps so stamp equality implies root identity.  Every
//     answer is still computed on the query's own Snapshot, so a kCached
//     forest gives exactly the guarantee of its kDirect twin.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/bat_tree.h"
#include "core/version_queries.h"
#include "reclamation/ebr.h"
#include "shard/aggregate_cache.h"
#include "util/counters.h"
#include "util/fault.h"
#include "util/padded.h"
#include "util/thread_annotations.h"

namespace cbat {

namespace shard_detail {

// One process-wide keyspace default shared by every ShardedSet template
// instance, so registry-created structures of any shard count agree.
Key default_keyspace();
void set_default_keyspace(Key keyspace);

}  // namespace shard_detail

// The inner structure must expose a *sized* augmentation (the cross-shard
// prefix sums are shard sizes) and a pinned-root view; the BAT variants do.
// (root_version_unsafe is safe here: every caller holds an EbrGuard for the
// lifetime of the returned pointer.)
template <class Inner>
concept ShardableInner = requires(Inner t, const Inner ct, Key k) {
  typename Inner::AugType;
  requires SizedAugmentation<typename Inner::AugType>;
  { t.insert(k) } -> std::same_as<bool>;
  { t.erase(k) } -> std::same_as<bool>;
  { ct.contains(k) } -> std::same_as<bool>;
  { ct.root_version_unsafe() };
};

// Inner structures whose root installations can stamp a shared epoch
// counter (BatTree and wrappers that forward set_epoch_source).  Required
// by SnapshotPolicy::kLinearizable; quiescent forests stamp too when the
// inner supports it, so the two policies differ only in acquisition.
template <class Inner>
concept EpochStampedInner =
    requires(Inner t, std::atomic<std::uint64_t>* c) { t.set_epoch_source(c); };

// Cross-shard snapshot acquisition mode; see the header comment.
enum class SnapshotPolicy { kQuiescent, kLinearizable };

// Composite-query read path; see the header comment.  kCached requires an
// epoch-stamped inner (the cache keys on root stamps) and an int64
// augmentation value (a cache entry carries one 64-bit aggregate).
enum class ReadPath { kDirect, kCached };

template <class Inner = Bat<SizeAug>, int NumShards = 16,
          SnapshotPolicy Policy = SnapshotPolicy::kQuiescent,
          ReadPath RPath = ReadPath::kDirect, bool Adaptive = false>
  requires ShardableInner<Inner> && (NumShards >= 1) &&
           (Policy == SnapshotPolicy::kQuiescent || EpochStampedInner<Inner>) &&
           // Migration freezes boundary moves at epoch cuts, so adaptive
           // forests need the stamping machinery even under kQuiescent.
           (!Adaptive || EpochStampedInner<Inner>) &&
           (RPath == ReadPath::kDirect ||
            (EpochStampedInner<Inner> &&
             std::same_as<typename Inner::AugType::Value, std::int64_t>))
class ShardedSet {
 public:
  using Aug = typename Inner::AugType;
  using AugValue = typename Aug::Value;
  using V = Version<Aug>;

  // The atomically-swappable boundary table (Adaptive forests).  Shard s
  // owns the inclusive key range [lo_of(s), hi_of(s)]; upper[NumShards-1]
  // is pinned to kMaxUserKey so the table always covers the keyspace.
  // Maps are immutable once published: a boundary move installs a fresh
  // table whose `prev` points at the one it replaced and whose
  // `flip_epoch` is stamped after installation (kEpochTbd until then,
  // help-stamped by readers — the same deferred-timestamp discipline as
  // root stamps), so linearizable snapshots can resolve the map chain to
  // the newest table at or before their cut.  Replaced tables are
  // EBR-retired; an accepted table's `prev` is never dereferenced, which
  // is what bounds the walk to live memory (see resolve_map_epoch).
  struct ShardMap {
    std::array<Key, NumShards> upper{};  // inclusive owned upper bounds
    std::uint64_t gen = 1;               // monotone map generation
    const ShardMap* prev = nullptr;
    // shared: stamped once at the flip; cold after publication.
    mutable std::atomic<std::uint64_t> flip_epoch{kEpochTbd};

    int shard_of(Key k) const {
      int lo = 0, hi = NumShards - 1;
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (k <= upper[mid]) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return lo;
    }
    Key lo_of(int s) const {
      return s == 0 ? std::numeric_limits<Key>::min() : upper[s - 1] + 1;
    }
    Key hi_of(int s) const { return upper[s]; }
  };

  // Migration phase-hook stages (test seam, like Snapshot's
  // MidAcquireHook): the migrator calls the hook at every protocol
  // boundary so tests can interleave queries and updates at each phase.
  static constexpr int kMigHookCopyBegin = 0;  // descriptor live, pre-copy
  static constexpr int kMigHookCopied = 1;     // bulk copy applied to dst
  static constexpr int kMigHookSealed = 2;     // range sealed, pre-replay
  static constexpr int kMigHookReplayed = 3;   // dirty log applied to dst
  static constexpr int kMigHookFlipped = 4;    // new map installed+stamped
  static constexpr int kMigHookOpened = 5;     // phase kDone, range live
  static constexpr int kMigHookCleaned = 6;    // source copies retired
  using MigrationHook = void (*)(void* ctx, int stage);

  ShardedSet() : ShardedSet(shard_detail::default_keyspace()) {}
  explicit ShardedSet(Key keyspace) {
    repartition(keyspace);
    // Attach the epoch counter before any update can run, so every root
    // the forest ever installs (beyond the initial empty roots, which the
    // resolve walk accepts as the oldest state) is stamped.  Stamping is
    // on under BOTH policies, deliberately: (a) it is what keeps the
    // snapshot_consistency ratio a pure *acquisition*-cost measurement
    // (the write paths are identical), and (b) the planned hot-shard
    // migration protocol (ROADMAP) needs epoch cuts on the *default*
    // quiescent forests.  The quiescent-side cost is one counter load
    // plus one uncontended CAS on a just-written line per root refresh —
    // inside smoke-gate noise.
    // kCached additionally selects unique (fetch_add-minted) stamps:
    // the aggregate cache validates by stamp equality, which is only
    // meaningful when no two roots can share a stamp (see
    // aggregate_cache.h).
    if constexpr (EpochStampedInner<Inner>) {
      for (auto& s : shards_) {
        s->set_epoch_source(&*epoch_, RPath == ReadPath::kCached);
      }
    }
  }

  ~ShardedSet() {
    if constexpr (Adaptive) {
      // Only the current map is owned here; every replaced map was
      // EBR-retired at its flip and the reclaimer frees it independently
      // (its deleter does not touch this set).
      delete map_.load(std::memory_order_acquire);
    }
  }

  static constexpr int num_shards() { return NumShards; }
  static constexpr SnapshotPolicy snapshot_policy() { return Policy; }
  static constexpr ReadPath read_path() { return RPath; }
  static constexpr bool adaptive_rebalancing() { return Adaptive; }

  // Introspection hook picked up by the API layer (SetModel::consistency):
  // cross-shard composite queries linearize only under kLinearizable.
  static constexpr bool composite_queries_linearizable() {
    return Policy == SnapshotPolicy::kLinearizable;
  }

  Key keyspace() const { return keyspace_; }

  // Current value of the snapshot epoch counter (tests; advanced only by
  // linearizable snapshot acquisitions, read by every root stamp).
  std::uint64_t current_epoch() const {
    return epoch_->load(std::memory_order_seq_cst);
  }

  // Adapts the shard map to keys drawn from [0, max_key).  Only honored
  // while the set is empty — repartitioning a populated forest would strand
  // keys in the wrong shard.  Not thread-safe against concurrent updates;
  // call it before handing the set to worker threads.
  bool key_range_hint(Key max_key) {
    if (max_key <= 0) return false;
    if (size() != 0) return false;
    repartition(max_key);
    return true;
  }

  // --- updates: exactly one shard, one EBR-guarded BAT update -------------

  bool insert(Key k) {
    if constexpr (Adaptive) {
      return adaptive_update(k, /*is_insert=*/true);
    } else {
      return shard(k).insert(k);
    }
  }
  bool erase(Key k) {
    if constexpr (Adaptive) {
      return adaptive_update(k, /*is_insert=*/false);
    } else {
      return shard(k).erase(k);
    }
  }

  // --- queries -------------------------------------------------------------

  // A point read is one shard's contains, which help-stamps the root it
  // reads (BatTree::contains; see the header comment).
  bool contains(Key k) const {
    if constexpr (Adaptive) {
      // Route by the current map, under a guard so the map stays live.
      // Correct in every migration phase: before the flip the old map
      // routes a migrating key to its source shard, which stays
      // authoritative until the range is sealed and replayed; after the
      // flip the new map routes to the destination, which the replay made
      // identical to the source at the moment updates were still blocked —
      // at the flip instant both routes give the same answer.
      EbrGuard g;
      const ShardMap* m = map_.load(std::memory_order_acquire);
      return shards_[m->shard_of(k)]->contains(k);
    } else {
      return shard(k).contains(k);
    }
  }

  // All composite queries pin one Snapshot so their per-shard reads merge a
  // single consistent forest (see the header comment for the guarantee).
  // The key-range queries pass the shard span they read, which lets a
  // Snapshot on one or two shards take the counter-free span cut.
  // Named Snapshot locals (never temporaries) throughout: TSA tracks
  // scoped capabilities only for named local variables, so
  // `Snapshot(*this).x()` would not prove ebr_capability held for x().
  std::int64_t size() const {
    const Snapshot snap(*this);
    return snap.size();
  }
  std::int64_t rank(Key k) const {
    const Snapshot snap(*this);
    return snap.rank(k);
  }
  std::optional<Key> select(std::int64_t i) const {
    const Snapshot snap(*this);
    return snap.select(i);
  }
  std::int64_t range_count(Key lo, Key hi) const {
    const Snapshot snap(*this, shard_of(lo), shard_of(hi));
    return snap.range_count(lo, hi);
  }
  AugValue range_aggregate(Key lo, Key hi) const {
    const Snapshot snap(*this, shard_of(lo), shard_of(hi));
    return snap.range_aggregate(lo, hi);
  }
  std::optional<Key> select_in_range(Key lo, Key hi, std::int64_t i) const {
    const Snapshot snap(*this, shard_of(lo), shard_of(hi));
    return snap.select_in_range(lo, hi, i);
  }
  // floor/ceiling first look in k's own shard on its span cut; only a miss
  // there with shards left to walk takes a whole-forest cut and starts
  // over on it.
  std::optional<Key> floor(Key k) const {
    {
      const Snapshot snap(*this, shard_of(k), shard_of(k));
      const std::optional<Key> r = snap.floor(k);
      if (r || snap.slo_ == 0) return r;
    }
    const Snapshot snap(*this);
    return snap.floor(k);
  }
  std::optional<Key> ceiling(Key k) const {
    {
      const Snapshot snap(*this, shard_of(k), shard_of(k));
      const std::optional<Key> r = snap.ceiling(k);
      if (r || snap.shi_ == NumShards - 1) return r;
    }
    const Snapshot snap(*this);
    return snap.ceiling(k);
  }
  std::vector<Key> range_collect(Key lo, Key hi, std::size_t limit = 0) const {
    const Snapshot snap(*this);
    return snap.keys(lo, hi, limit);
  }

  // A consistent cut of the forest under ONE EBR guard: `guard_` is
  // declared (and therefore constructed) before the constructor takes the
  // cut, and it spans every query made through the snapshot — composite
  // queries never re-enter the EBR per shard.  Public constructors take
  // the epoch cut over every shard; the private span constructor serves
  // the one-shot key-range queries above (see the header comment for
  // both).  The constructor pins the covered roots in roots_, and the
  // shard-size prefix sums are materialized lazily, once, on the first
  // query that needs them (rank/select/size); order-free queries such as
  // floor or range_aggregate skip the O(NumShards) size reads entirely.
  //
  // For Thread Safety Analysis the Snapshot IS a scoped ebr_capability
  // (its guard_ member pins the epoch for its whole lifetime), and every
  // query method is CBAT_REQUIRES(ebr_capability) because it dereferences
  // the pinned roots.
  class CBAT_SCOPED_CAPABILITY Snapshot {
   public:
    // Test-only seam: called with the shard index right before that
    // shard's root is read, letting deterministic interleaving tests
    // (tests/linearizability_test.cpp) run updates mid-acquisition.
    using MidAcquireHook = void (*)(void* ctx, int next_shard);

    explicit Snapshot(const ShardedSet& s) CBAT_ACQUIRE(ebr_capability)
        : Snapshot(s, nullptr, nullptr) {}
    Snapshot(const ShardedSet& s, MidAcquireHook hook, void* hook_ctx)
        CBAT_ACQUIRE(ebr_capability)
        : owner_(&s) {
      // guard: guard_ is constructed before this body runs (it is the
      // first member); TSA does not track member-subobject guards, so
      // assert the capability it already pinned.
      ebr_assert_held();
      take_epoch_cut(hook, hook_ctx);
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    // Flushes the cache hit/miss tallies once, here, so a query's lookups
    // are visible to Counters::snapshot() as soon as the query returns.
    ~Snapshot() CBAT_RELEASE() {
      if constexpr (RPath == ReadPath::kCached) {
        if (tally_.hits != 0) {
          Counters::bump(Counter::kAggCacheHits, tally_.hits);
        }
        if (tally_.misses != 0) {
          Counters::bump(Counter::kAggCacheMisses, tally_.misses);
        }
      }
    }

    // The epoch this snapshot's cut was taken at: the counter value its
    // fetch_add returned (kLinearizable epoch cut), else 0 (kQuiescent,
    // and span cuts, which take no counter value).
    std::uint64_t epoch() const { return epoch_; }

    bool contains(Key k) const CBAT_REQUIRES(ebr_capability) {
      return version_contains<Aug>(root(snap_shard_of(k)), k);
    }

    std::int64_t size() const CBAT_REQUIRES(ebr_capability) {
      return prefix()[NumShards];
    }

    // Keys <= k: the full shards below k's shard, by prefix sum, plus one
    // rank descent inside it.  Adaptive shards subtract the keys below
    // their owned range — the routing map guarantees k itself lies inside
    // the owning shard's range, so only the low side needs the clamp.
    std::int64_t rank(Key k) const CBAT_REQUIRES(ebr_capability) {
      const int s = snap_shard_of(k);
      if constexpr (Adaptive) {
        return prefix()[s] + version_rank<Aug>(root(s), k) -
               version_rank_less<Aug>(root(s), map_->lo_of(s));
      } else {
        return prefix()[s] + version_rank<Aug>(root(s), k);
      }
    }

    // Keys < k.
    std::int64_t rank_less(Key k) const CBAT_REQUIRES(ebr_capability) {
      const int s = snap_shard_of(k);
      if constexpr (Adaptive) {
        return prefix()[s] + version_rank_less<Aug>(root(s), k) -
               version_rank_less<Aug>(root(s), map_->lo_of(s));
      } else {
        return prefix()[s] + version_rank_less<Aug>(root(s), k);
      }
    }

    // i-th smallest key overall (1-based): binary-search the prefix sums
    // for the owning shard, then select inside it.
    std::optional<Key> select(std::int64_t i) const
        CBAT_REQUIRES(ebr_capability) {
      const auto& pre = prefix();
      if (i < 1 || i > pre[NumShards]) return std::nullopt;
      const auto it = std::lower_bound(pre.begin() + 1, pre.end(), i);
      const int s = static_cast<int>(it - pre.begin()) - 1;
      if constexpr (Adaptive) {
        return version_select_in_range<Aug>(root(s), map_->lo_of(s),
                                            map_->hi_of(s), i - pre[s]);
      } else {
        return version_select<Aug>(root(s), i - pre[s]);
      }
    }

    // Keys in [lo, hi]: the sum of each shard's slice over the span the
    // range covers — one descent in each boundary shard, O(1) for a
    // fully covered middle shard of a static forest.
    std::int64_t range_count(Key lo, Key hi) const
        CBAT_REQUIRES(ebr_capability) {
      if (lo > hi) return 0;
      const int slo = snap_shard_of(lo);
      const int shi = snap_shard_of(hi);
      std::int64_t n = 0;
      for (int s = slo; s <= shi; ++s) {
        n += slice(s, s == slo ? lo : kMinKey, s == shi ? hi : kMaxUserKey)
                 .count;
      }
      return n;
    }

    // Aggregate over [lo, hi]: boundary shards answer partially, every
    // fully-covered middle shard contributes its root's supplementary
    // field in O(1), and contiguity keeps the combine in key order.  The
    // boundary descents are the only O(log n) part, so they are what the
    // range cache memoizes (shard_range_agg) under ReadPath::kCached.
    AugValue range_aggregate(Key lo, Key hi) const
        CBAT_REQUIRES(ebr_capability) {
      if (lo > hi) return Aug::sentinel();
      const int slo = snap_shard_of(lo);
      const int shi = snap_shard_of(hi);
      if (slo == shi) {
        return shard_range_agg(slo, lo, hi);
      }
      if constexpr (Adaptive) {
        // Middle shards lose their O(1) root-aug shortcut: the root
        // aggregates EVERYTHING in the tree, stale out-of-range copies
        // included, so each middle shard answers its owned range with a
        // restricted descent (cached under kCached like the boundary
        // pieces — the (lo, hi) pair is part of the cache entry, so a
        // map change re-keys the lookup by itself).
        AugValue acc = shard_range_agg(slo, lo, map_->hi_of(slo));
        for (int s = slo + 1; s < shi; ++s) {
          acc = Aug::combine(
              acc, shard_range_agg(s, map_->lo_of(s), map_->hi_of(s)));
        }
        return Aug::combine(acc, shard_range_agg(shi, map_->lo_of(shi), hi));
      } else {
        AugValue acc = shard_range_agg(slo, lo, kMaxUserKey);
        for (int s = slo + 1; s < shi; ++s) {
          acc = Aug::combine(acc, root(s)->aug);
        }
        return Aug::combine(acc, shard_range_agg(shi, kMinKey, hi));
      }
    }

    // i-th smallest key within [lo, hi] (1-based), all on this snapshot:
    // walk the covered shards' slices until the one holding it, then one
    // select descent there.
    std::optional<Key> select_in_range(Key lo, Key hi, std::int64_t i) const
        CBAT_REQUIRES(ebr_capability) {
      if (lo > hi || i < 1) return std::nullopt;
      const int slo = snap_shard_of(lo);
      const int shi = snap_shard_of(hi);
      for (int s = slo; s <= shi; ++s) {
        const Slice c =
            slice(s, s == slo ? lo : kMinKey, s == shi ? hi : kMaxUserKey);
        if (i <= c.count) return version_select<Aug>(root(s), c.below + i);
        i -= c.count;
      }
      return std::nullopt;
    }

    // Largest key <= k: try k's shard, then walk down over empty-below
    // shards (usually zero or one extra probe) as far as the cut reaches.
    // Adaptive shards clamp the probe to the owned range and reject
    // answers below it — a stale out-of-range copy must neither be
    // returned nor end the walk.
    std::optional<Key> floor(Key k) const CBAT_REQUIRES(ebr_capability) {
      for (int s = snap_shard_of(k); s >= slo_; --s) {
        if constexpr (Adaptive) {
          const Key cap = std::min(k, map_->hi_of(s));
          if (auto r = version_floor<Aug>(root(s), cap)) {
            if (*r >= map_->lo_of(s)) return r;
          }
        } else {
          if (auto r = version_floor<Aug>(root(s), k)) return r;
        }
      }
      return std::nullopt;
    }

    // Smallest key >= k.
    std::optional<Key> ceiling(Key k) const CBAT_REQUIRES(ebr_capability) {
      for (int s = snap_shard_of(k); s <= shi_; ++s) {
        if constexpr (Adaptive) {
          const Key flo = std::max(k, map_->lo_of(s));
          if (auto r = version_ceiling<Aug>(root(s), flo)) {
            if (*r <= map_->hi_of(s)) return r;
          }
        } else {
          if (auto r = version_ceiling<Aug>(root(s), k)) return r;
        }
      }
      return std::nullopt;
    }

    // All keys in [lo, hi] in order; shard contiguity makes simple
    // per-shard concatenation over the covered shards sorted (adaptive
    // shards clamp each collection to the shard's owned slice of
    // [lo, hi]).
    std::vector<Key> keys(Key lo = kMinKey, Key hi = kMaxUserKey,
                          std::size_t limit = 0) const
        CBAT_REQUIRES(ebr_capability) {
      std::vector<Key> out;
      if (lo > hi) return out;
      const int shi = snap_shard_of(hi);
      for (int s = snap_shard_of(lo); s <= shi; ++s) {
        if constexpr (Adaptive) {
          const Key l = std::max(lo, map_->lo_of(s));
          const Key h = std::min(hi, map_->hi_of(s));
          if (l <= h) version_collect_range<Aug>(root(s), l, h, &out, limit);
        } else {
          version_collect_range<Aug>(root(s), lo, hi, &out, limit);
        }
        if (limit > 0 && out.size() >= limit) break;
      }
      return out;
    }

    const V* root(int s) const CBAT_REQUIRES(ebr_capability) {
      return roots_[s];
    }

   private:
    friend class ShardedSet;

    static constexpr Key kMinKey = std::numeric_limits<Key>::min();

    // The span constructor (one-shot key-range queries): the cut covers
    // only shards [slo, shi], the span the query reads.  Static forests
    // take the counter-free span cut when the span has one or two shards;
    // everything else, and a span cut that keeps failing validation, takes
    // the epoch cut restricted to the span.  Adaptive forests always cut
    // the whole forest: their pinned map decides the span.
    Snapshot(const ShardedSet& s, int slo, int shi)
        CBAT_ACQUIRE(ebr_capability)
        : owner_(&s),
          slo_(Adaptive ? 0 : slo),
          shi_(Adaptive ? NumShards - 1 : std::max(slo, shi)) {
      // guard: as in the public constructor.
      ebr_assert_held();
      if constexpr (!Adaptive) {
        if (shi_ - slo_ <= 1 && take_span_cut()) return;
      }
      take_epoch_cut(nullptr, nullptr);
    }

    // The span cut (see the header comment; the linearization argument is
    // in docs/ARCHITECTURE.md, "How the epoch cut works").  Each attempt
    // loads and help-stamps every root of the span (the first collect),
    // then reloads them (the second).  Equal pointers mean each root was
    // current from its first load to its reload: a root pointer cannot
    // recur, because installs publish fresh versions and the guard keeps a
    // retired one from being freed and reallocated.  One shard needs no
    // second collect.  Returns false after kCollectAttempts failed
    // validations; the epoch cut taken next discards the collected roots.
    bool take_span_cut() CBAT_REQUIRES(ebr_capability) {
      const ShardedSet& s = *owner_;
      for (int attempt = 0; attempt < kCollectAttempts; ++attempt) {
        for (int i = slo_; i <= shi_; ++i) roots_[i] = s.root_now(i);
        if (slo_ == shi_) return true;
        if (s.collect_hook_ != nullptr) {
          s.collect_hook_(s.collect_hook_ctx_, attempt);
        }
        bool same = true;
        for (int i = slo_; i <= shi_; ++i) {
          same = same && s.shards_[i]->root_version_unsafe() == roots_[i];
        }
        if (same) return true;
      }
      return false;
    }

    // The epoch cut over [slo_, shi_], every root read here.  Under
    // kLinearizable the fetch_add is the cut and each root resolves
    // against it; under kQuiescent the roots are read one after another.
    // Kept out of line: inlined into every query, it grew the translation
    // units that include this header enough to change how gcc inlined the
    // BAT update path there (5-10% on bat.* in perfbench).
    [[gnu::noinline]] void take_epoch_cut(MidAcquireHook hook, void* hook_ctx)
        CBAT_REQUIRES(ebr_capability) {
      const ShardedSet& s = *owner_;
      if constexpr (Policy == SnapshotPolicy::kLinearizable) {
        // fetch_add (not a plain read): every root stamped after this
        // point reads a counter value > epoch_, so it resolves past the
        // cut — and every update whose response preceded this call was
        // stamped <= epoch_, so it resolves inside it.
        epoch_ = s.epoch_->fetch_add(1, std::memory_order_seq_cst);
        if constexpr (Adaptive) {
          // Resolve the map the same way the roots are resolved: newest
          // table whose flip was stamped at or before the cut.  Any
          // (map@E, roots@E) pair is consistent — the owned-range
          // restriction hides a destination's pre-flip copies and a
          // source's post-flip leftovers on every cut.
          map_ = s.resolve_map_epoch(s.map_.load(std::memory_order_seq_cst),
                                     epoch_);
        }
      } else if constexpr (Adaptive) {
        map_ = s.map_.load(std::memory_order_acquire);
      }
      for (;;) {
        for (int i = slo_; i <= shi_; ++i) {
          if (hook != nullptr) hook(hook_ctx, i);
          if constexpr (Policy == SnapshotPolicy::kLinearizable) {
            roots_[i] = s.resolve_root(i, epoch_);
          } else {
            roots_[i] = s.shards_[i]->root_version_unsafe();
          }
        }
        if constexpr (Adaptive && Policy == SnapshotPolicy::kQuiescent) {
          // A quiescent cut must not pair an OLD map with roots pinned
          // after a newer map's post-flip cleanup (the cleanup's erases
          // would make the migrated range vanish from both shards under
          // the old restriction).  Re-check the map after pinning: flips
          // are rare, the loop virtually never retries, and the guard
          // held across the whole loop rules out map-pointer ABA (a
          // retired map cannot be freed and reallocated while we run).
          const ShardMap* cur = s.map_.load(std::memory_order_acquire);
          if (cur != map_) {
            map_ = cur;
            continue;
          }
        }
        break;
      }
    }

    // Shard routing on THIS snapshot's view: the pinned map under
    // Adaptive (the live map may flip while the snapshot is open), the
    // static division otherwise.
    int snap_shard_of(Key k) const CBAT_REQUIRES(ebr_capability) {
      if constexpr (Adaptive) {
        return map_->shard_of(k);
      } else {
        return owner_->shard_of(k);
      }
    }

    // Shard s's keys in [lo, hi] (clamped to its owned range under
    // Adaptive): `count` of them, and `below` keys of the shard's tree
    // under the slice, which is the rank offset a select inside the slice
    // starts from.  The open ends (kMinKey / kMaxUserKey) cost no descent.
    struct Slice {
      std::int64_t below;
      std::int64_t count;
    };
    Slice slice(int s, Key lo, Key hi) const CBAT_REQUIRES(ebr_capability) {
      if constexpr (Adaptive) {
        lo = std::max(lo, map_->lo_of(s));
        hi = std::min(hi, map_->hi_of(s));
        if (lo > hi) return {0, 0};
      }
      const V* r = root(s);
      const std::int64_t below =
          lo == kMinKey ? 0 : version_rank_less<Aug>(r, lo);
      const std::int64_t upto =
          hi == kMaxUserKey ? version_size<Aug>(r) : version_rank<Aug>(r, hi);
      return {below, upto - below};
    }

    // Lazy prefix-sum materialization, once per snapshot, guarded by the
    // optional's engaged flag.  The documented contract is single-threaded
    // use of one Snapshot (one thread constructs it, queries it, drops it;
    // a thread that wants its own view takes its own Snapshot), so the
    // previous std::call_once / once_flag here paid fence-and-branch
    // machinery on every rank/select/size for a cross-thread fan-out that
    // never happens.
    const std::array<std::int64_t, NumShards + 1>& prefix() const
        CBAT_REQUIRES(ebr_capability) {
      if (prefix_) return *prefix_;
      // Straight fill from the pinned roots, one aug load per shard —
      // deliberately NO stamp-keyed memoization here.  A root's epoch
      // stamp lives on the same version-node cache line as its aug field,
      // so validating a memoized prefix by stamps touches the same
      // NumShards lines as refilling it and then pays the compare and the
      // copy on top; earlier revisions that memoized shard sizes (per
      // thread, and in a shared seqlocked row) measured 25-35% SLOWER
      // than this loop on the read_burst rank mixes.
      // Adaptive shards count only their owned range: a migration's
      // bulk-copied destination keys (pre-flip) and not-yet-cleaned
      // source keys (post-flip) both live outside their shard's owned
      // range under the pinned map, so version_size would double-count
      // exactly them.  The restricted count is a rank descent per end
      // instead of one aug load — the adaptivity tax on rank/select.
      // Prefix sums read every shard: only a whole-forest cut has them all.
      assert(slo_ == 0 && shi_ == NumShards - 1);
      auto& pre = prefix_.emplace();
      pre[0] = 0;
      for (int i = 0; i < NumShards; ++i) {
        if constexpr (Adaptive) {
          pre[i + 1] = pre[i] + slice(i, kMinKey, kMaxUserKey).count;
        } else {
          pre[i + 1] = pre[i] + version_size<Aug>(root(i));
        }
      }
      return pre;
    }

    // Partial range aggregate of shard s over [lo, hi], cached per shard
    // for the hot ranges under ReadPath::kCached.  The (lo, hi) pair is
    // part of the entry, so boundary pieces of different ranges that
    // hash together only cost each other misses, never wrong answers.
    AugValue shard_range_agg(int s, Key lo, Key hi) const
        CBAT_REQUIRES(ebr_capability) {
      const V* r = root(s);
      if constexpr (RPath == ReadPath::kCached) {
        const std::uint64_t stamp = owner_->stamp(r);
        std::int64_t v;
        if (owner_->cache_.load_range(s, lo, hi, stamp, &v)) {
          ++tally_.hits;
          return v;
        }
        ++tally_.misses;
        const AugValue fresh = version_range_aggregate<Aug>(r, lo, hi);
        owner_->cache_.store_range(s, lo, hi, stamp, fresh);
        return fresh;
      } else {
        return version_range_aggregate<Aug>(r, lo, hi);
      }
    }

    EbrGuard guard_;
    const ShardedSet* owner_;
    // The shards the cut covers: all of them for the public constructors,
    // the query's span for the span constructor.
    int slo_ = 0;
    int shi_ = NumShards - 1;
    std::uint64_t epoch_ = 0;
    // The boundary table this snapshot routes and restricts by (Adaptive
    // only; null otherwise).  Pinned by guard_ like the roots.
    const ShardMap* map_ = nullptr;
    // The pinned roots of [slo_, shi_].  Deliberately not value-
    // initialized: the zeroing cost about 10 ns per one-shot query, and
    // no query reads a shard outside the span (prefix() asserts it).
    std::array<const V*, NumShards> roots_;
    mutable std::optional<std::array<std::int64_t, NumShards + 1>> prefix_;
    // Aggregate-cache lookups made through this snapshot (kCached only),
    // flushed by the destructor: one Counters::bump per query instead of
    // one per lookup.
    struct CacheTally {
      std::uint32_t hits = 0;
      std::uint32_t misses = 0;
    };
    struct NoTally {};
    [[no_unique_address]] mutable std::conditional_t<
        RPath == ReadPath::kCached, CacheTally, NoTally>
        tally_;
  };

  // Shard index owning key k; monotone non-decreasing in k, which is what
  // lets rank/select compose by prefix sums.
  int shard_of(Key k) const {
    if (k <= 0) return 0;
    const Key s = k / width_;
    return s >= NumShards ? NumShards - 1 : static_cast<int>(s);
  }

  // Test seam for the span cut's double collect: called between the two
  // collects of every validation attempt with the attempt's index, so a
  // test can move a root under one validation (forcing a retry) or under
  // all kCollectAttempts of them (forcing the fallback to the epoch cut).
  // Set it while no query runs.
  using CollectHook = void (*)(void* ctx, int attempt);
  void set_collect_hook(CollectHook h, void* ctx) {
    collect_hook_ = h;
    collect_hook_ctx_ = ctx;
  }
  // Validation attempts of a two-shard span cut before it falls back.
  static constexpr int kCollectAttempts = 4;

  Inner& shard_at(int i) { return *shards_[i]; }
  const Inner& shard_at(int i) const { return *shards_[i]; }

  // Pool warm-up passthrough.  The object pools are type-keyed and
  // per-thread (process-wide, not per-tree), so pre-faulting through one
  // shard covers every shard of the forest.
  void warm_up(std::size_t expected_updates)
    requires requires(Inner t, std::size_t n) { t.warm_up(n); }
  {
    shards_[0]->warm_up(expected_updates);
  }

  // --- adaptive rebalancing API (Adaptive forests only) --------------------

  // Test seam: switches the piggybacked controller off so tests can drive
  // moves by hand; the protocol machinery stays armed (rebalance_once
  // still works), only the policy goes quiet.
  void set_adaptive_enabled(bool on)
    requires(Adaptive)
  {
    // relaxed: policy switch; no data is published with it.
    mig_.enabled.store(on, std::memory_order_relaxed);
  }
  // Test seam, mirroring Snapshot::MidAcquireHook: called at every
  // protocol boundary of a migration (the kMigHook* stages) so
  // deterministic interleaving tests can run queries and updates against
  // each phase.  Always invoked outside any EBR guard.
  void set_migration_hook(MigrationHook h, void* ctx)
    requires(Adaptive)
  {
    // relaxed: ctx is published by the hook release store below.
    mig_.hook_ctx.store(ctx, std::memory_order_relaxed);
    mig_.hook.store(h, std::memory_order_release);
  }

  // Force one boundary move from shard `src` to an ADJACENT `dst` now
  // (tests and benchmarks; the policy path takes the same route).  False
  // when another migration is in flight, the pair is not adjacent, or src
  // owns too few keys to split.
  bool rebalance_once(int src, int dst)
    requires(Adaptive)
  {
    if (src < 0 || src >= NumShards || dst < 0 || dst >= NumShards ||
        (dst != src - 1 && dst != src + 1)) {
      return false;
    }
    if (!mig_.gate.try_acquire()) return false;
    const bool moved = migrate(src, dst);
    mig_.gate.release();
    return moved;
  }

  // Current map generation (1 + completed boundary moves); tests use it
  // to await convergence without poking at counters.
  std::uint64_t map_generation() const
    requires(Adaptive)
  {
    EbrGuard g;
    return map_.load(std::memory_order_acquire)->gen;
  }

 private:
  Inner& shard(Key k) { return *shards_[shard_of(k)]; }
  const Inner& shard(Key k) const { return *shards_[shard_of(k)]; }

  // --- the epoch-cut migration protocol (Adaptive only) --------------------
  //
  // One migration descriptor per forest (moves are serialized by the
  // migration gate).  The phase word is the updater-facing contract:
  //
  //   kIdle  — no move in flight; updates route by the current map.
  //   kCopy  — keys in [lo, hi] are being bulk-copied from src to dst on
  //            an epoch cut E0; updates in the range still apply to src
  //            (the map has not flipped) but ALSO log their key, so the
  //            migrator can replay what the copy missed.
  //   kSeal  — updates in the range park OUTSIDE their guard until the
  //            phase moves on; one grace period after sealing, the range
  //            is quiescent and the log replay makes dst exact.
  //   kDone  — the new map is published; updates route by it (to dst).
  //
  // Every phase store is seq_cst and followed by mig_quiesce() where the
  // protocol needs "all updates that saw the previous phase have
  // finished".  The barrier is a dedicated per-thread in-flight array —
  // NOT the EBR guard — because a routed update spans more than one
  // guarded section (the map lookup, then the shard's own operation), and
  // widening one guard over all of it would let a descheduled updater pin
  // the reclamation epoch for every structure in the process.  An updater
  // announces its slot (seq_cst) BEFORE reading the phase, so an updater
  // observed idle either finished its operation or started a new one
  // that already sees the new phase.
  // Single-migrator election gate, modeled as a TSA capability: the
  // protocol bodies (migrate, replay_log) are CBAT_REQUIRES(mig_.gate),
  // so reaching them without winning the election is a compile error
  // under -DCBAT_THREAD_SAFETY=ON.  Losers skip, not wait — try_acquire
  // is the whole election.
  class CBAT_CAPABILITY("migration gate") MigrationGate {
   public:
    // acq_rel: a winner must see the previous migration's protocol
    // writes (acquire) and publish its own claim (release) in one RMW.
    bool try_acquire() CBAT_TRY_ACQUIRE(true) {
      return !active_.exchange(true, std::memory_order_acq_rel);
    }
    void release() CBAT_RELEASE() {
      active_.store(false, std::memory_order_release);
    }

   private:
    // shared: single word flipped twice per migration; contention is nil.
    std::atomic<bool> active_{false};
  };

  struct Migration {
    enum Phase : int { kIdle = 0, kCopy = 1, kSeal = 2, kDone = 3 };
    // Dirty-key log capacity.  An overflow is not an error: the replay
    // falls back to a full diff of the migrated range (src truth vs. the
    // bulk copy), it just stops being proportional to the update rate.
    static constexpr std::uint32_t kLogCap = 1u << 13;
    // Don't split shards with fewer owned keys than this.
    static constexpr std::int64_t kMinSplitKeys = 16;
    // The controller's policy: every kCheckPeriod updates a thread checks
    // whether the hottest shard runs above kHotFactor times the mean rate.
    static constexpr std::uint32_t kCheckPeriod = 512;
    static constexpr double kHotFactor = 2.0;

    // shared: phase word; seq_cst-stored by the single migrator, rare.
    std::atomic<int> phase{kIdle};
    // shared: move bounds; written once per migration, before kCopy.
    std::atomic<Key> lo{0};
    std::atomic<Key> hi{0};
    // shared: dirty-log cursor + overflow flag; bumped by in-range
    // updaters during kCopy only, never on the common path.
    std::atomic<std::uint32_t> log_n{0};
    std::atomic<bool> log_overflow{false};
    // shared: the log; slots are claimed by fetch_add, written once.
    std::array<std::atomic<Key>, kLogCap> log{};
    // Per-thread in-flight update announcements: (op_seq << 1) | active.
    // The op counter makes every announcement distinct, so the migrator's
    // quiesce wait is a simple "changed or idle" check with no ABA.
    std::array<Padded<std::atomic<std::uint64_t>>, kMaxThreads> inflight{};
    // Single-migrator gate; also what serializes map flips.
    MigrationGate gate;
    // Per-shard update-rate estimators (sampled 1-in-8 by note_update).
    std::array<Padded<std::atomic<std::uint64_t>>, NumShards> rate{};
    // shared: test seams (set_adaptive_enabled, set_migration_hook);
    // read-mostly, idle in production.
    std::atomic<bool> enabled{true};
    std::atomic<MigrationHook> hook{nullptr};
    std::atomic<void*> hook_ctx{nullptr};
  };
  // Zero-cost stand-in keeping TSA attribute arguments (mig_.gate)
  // well-formed in instantiations that compile the real member out:
  // member declarations — attributes included — are instantiated even for
  // requires-constrained functions that can never be called there.
  class CBAT_CAPABILITY("unused") UnusedCapability {};
  struct NoMigration {
    [[no_unique_address]] UnusedCapability gate;
  };

  // Announce / retire one in-flight update in this thread's slot.  The
  // announce is seq_cst and MUST precede the phase read (that ordering is
  // the whole barrier: an updater that read the old phase is visibly
  // active to a migrator that scans after its phase store).
  std::atomic<std::uint64_t>& announce_inflight()
    requires(Adaptive)
  {
    thread_local std::uint64_t op_seq = 0;
    auto& slot = mig_.inflight[ThreadRegistry::thread_id()].value;
    slot.store((++op_seq << 1) | 1, std::memory_order_seq_cst);
    return slot;
  }
  static void retire_inflight(std::atomic<std::uint64_t>& slot) {
    // Release: the tree op's response and any dirty-log entry are
    // published before the slot reads idle.
    // relaxed: reads back this thread's own slot; coherence suffices.
    slot.store(slot.load(std::memory_order_relaxed) & ~1ULL,
               std::memory_order_release);
  }

  // Waits until every update announced before the call has finished.
  // Caller must have its own slot idle (the piggybacked migrator calls
  // this from note_update, after its update retired).  A slot that
  // changes at all has moved on: either to idle, or to a NEW operation —
  // which read the phase after our caller's phase store.
  void mig_quiesce()
    requires(Adaptive)
  {
    const int n = ThreadRegistry::instance().max_id();
    for (int t = 0; t < n && t < kMaxThreads; ++t) {
      auto& s = mig_.inflight[t].value;
      const std::uint64_t v = s.load(std::memory_order_seq_cst);
      if ((v & 1) == 0) continue;
      while (s.load(std::memory_order_acquire) == v) {
        std::this_thread::yield();
      }
    }
  }

  // Apply one update through the migration protocol.  The in-flight slot
  // stays announced across the whole routed operation so the migrator's
  // quiesce orders against us; a sealed-range updater parks with its slot
  // retired (spinning announced would deadlock the migrator's own
  // quiesce).
  bool adaptive_update(Key k, bool is_insert)
    requires(Adaptive)
  {
    bool r;
    int routed;
    for (;;) {
      auto& slot = announce_inflight();
      const int ph = mig_.phase.load(std::memory_order_seq_cst);
      // relaxed: lo/hi are stored before the kCopy phase store, and
      // reading kCopy (or later) seq_cst synchronizes with it, so the
      // in-range checks under an active phase never see stale bounds.
      if (ph == Migration::kCopy &&
          k >= mig_.lo.load(std::memory_order_relaxed) &&
          k <= mig_.hi.load(std::memory_order_relaxed)) {
        // Double-route: the map still sends k to the source shard, and
        // the dirty log tells the migrator to re-examine k at replay.
        r = route_update(k, is_insert, &routed);
        mig_log(k);
        retire_inflight(slot);
        break;
      }
      // relaxed: same ordering argument as the kCopy bounds check above.
      if (ph != Migration::kSeal ||
          k < mig_.lo.load(std::memory_order_relaxed) ||
          k > mig_.hi.load(std::memory_order_relaxed)) {
        r = route_update(k, is_insert, &routed);
        retire_inflight(slot);
        break;
      }
      // Sealed and in range: wait for the flip, then re-run the protocol
      // (the retry will see kDone/kIdle and route by the NEW map — the
      // map store precedes the phase store, both seq_cst).
      retire_inflight(slot);
      while (mig_.phase.load(std::memory_order_seq_cst) == Migration::kSeal) {
        std::this_thread::yield();
      }
    }
    note_update(routed);
    return r;
  }

  // The guard is scoped to the map dereference only: the inner operation
  // opens its own, and the in-flight slot already covers the protocol
  // ordering.
  bool route_update(Key k, bool is_insert, int* routed)
    requires(Adaptive)
  {
    int s;
    {
      EbrGuard g;
      s = map_.load(std::memory_order_acquire)->shard_of(k);
    }
    *routed = s;
    Inner& t = *shards_[s];
    return is_insert ? t.insert(k) : t.erase(k);
  }

  // Caller's in-flight slot is announced: the sealing quiesce is what
  // makes the log entry visible to the replay (the release stores below
  // happen before the slot retires, which the migrator waits for).
  void mig_log(Key k)
    requires(Adaptive)
  {
    const std::uint32_t i =
        mig_.log_n.fetch_add(1, std::memory_order_acq_rel);
    if (i < Migration::kLogCap) {
      mig_.log[i].store(k, std::memory_order_release);
    } else {
      mig_.log_overflow.store(true, std::memory_order_release);
    }
    Counters::bump(Counter::kShardDoubleRoutes);
  }

  // Rate tracking + piggybacked policy check; called after every update,
  // outside any guard.  Sampling 1-in-8 keeps the hot shard's rate
  // counter off the update fast path's critical line budget.
  void note_update(int shard)
    requires(Adaptive)
  {
    thread_local std::uint32_t ops = 0;
    thread_local std::uint32_t until_check = 1;
    if ((++ops & 7u) == 0) {
      // `shard` is the index the op actually routed to — no second map
      // lookup (and no guard) needed here.
      // relaxed: statistical estimator; lost or reordered bumps are noise.
      mig_.rate[shard]->fetch_add(8, std::memory_order_relaxed);
    }
    if (--until_check == 0) {
      until_check = Migration::kCheckPeriod;
      maybe_rebalance();
    }
  }

  // The RebalanceController's local rule: if the hottest shard's rate
  // exceeds kHotFactor x mean and an adjacent neighbor runs at half the
  // hot rate or less, shed half of the hot shard's keys to that neighbor.
  // Piggybacked on updater threads — no coordinator thread; the election
  // gate makes losers skip, not wait.
  void maybe_rebalance()
    requires(Adaptive)
  {
    // relaxed: policy switch; a stale read just defers one check period.
    if (!mig_.enabled.load(std::memory_order_relaxed)) return;
    if (!mig_.gate.try_acquire()) return;
    std::array<std::uint64_t, NumShards> r;
    std::uint64_t total = 0;
    int hot = 0;
    // relaxed: estimator reads; the policy tolerates any approximate view.
    for (int i = 0; i < NumShards; ++i) {
      r[i] = mig_.rate[i]->load(std::memory_order_relaxed);
      total += r[i];
      if (r[i] > r[hot]) hot = i;
    }
    // Need enough samples for the mean to be meaningful.
    if (total >= static_cast<std::uint64_t>(NumShards) * 64) {
      const std::uint64_t mean =
          std::max<std::uint64_t>(total / NumShards, 1);
      Counters::bump(Counter::kShardImbalanceSumMilli,
                     r[hot] * 1000 / mean);
      Counters::bump(Counter::kShardImbalanceSamples);
      const double hot_rate = static_cast<double>(r[hot]);
      if (NumShards > 1 &&
          hot_rate > Migration::kHotFactor * static_cast<double>(mean)) {
        // Cooler adjacent neighbor, the cooler of the two if both
        // qualify; require it to run at <= half the hot rate so the move
        // cannot ping-pong.
        int dst = -1;
        if (hot > 0 && r[hot - 1] * 2 <= r[hot]) dst = hot - 1;
        if (hot < NumShards - 1 && r[hot + 1] * 2 <= r[hot] &&
            (dst < 0 || r[hot + 1] < r[dst])) {
          dst = hot + 1;
        }
        if (dst >= 0 && migrate(hot, dst)) {
          // relaxed: estimator reset; racing bumps may survive or vanish.
          for (auto& c : mig_.rate) c->store(0, std::memory_order_relaxed);
        }
      }
      // Decay so the estimator tracks the CURRENT distribution: without
      // it a workload shift would be invisible behind accumulated history.
      if (total > (1u << 16)) {
        // relaxed: estimator decay; racing bumps may be halved or not.
        for (auto& c : mig_.rate) {
          c->store(c->load(std::memory_order_relaxed) / 2,
                   std::memory_order_relaxed);
        }
      }
    }
    mig_.gate.release();
  }

  // Finalizes root r's epoch stamp in the forest's minting mode and
  // returns it.  Every helper must mint in that mode: unique forests
  // (kCached) may never let a load-based helper duplicate a
  // fetch_add-minted stamp.
  std::uint64_t stamp(const V* r) const CBAT_REQUIRES(ebr_capability) {
    if constexpr (RPath == ReadPath::kCached) {
      return version_epoch_unique<Aug>(r, *epoch_);
    } else {
      return version_epoch<Aug>(r, *epoch_);
    }
  }

  // Shard s's current root, for the span cut, which uses it without an
  // epoch cut.  Under kLinearizable it is help-stamped first, so no later
  // epoch cut can place the root after the read.
  const V* root_now(int s) const CBAT_REQUIRES(ebr_capability) {
    const V* r = shards_[s]->root_version_unsafe();
    if constexpr (Policy == SnapshotPolicy::kLinearizable) stamp(r);
    return r;
  }

  // Resolve shard s's root to the newest version stamped at or before
  // epoch e, in the forest's stamp-minting mode.  Caller holds a guard
  // taken before e was drawn.
  const V* resolve_root(int s, std::uint64_t e) const
      CBAT_REQUIRES(ebr_capability) {
    const V* r = shards_[s]->root_version_unsafe();
    if constexpr (RPath == ReadPath::kCached) {
      return version_resolve_epoch_unique<Aug>(r, e, *epoch_);
    } else {
      return version_resolve_epoch<Aug>(r, e, *epoch_);
    }
  }

  // Walk the map chain to the newest table whose flip was stamped at or
  // before epoch e.  The same deferred-timestamp argument as the root
  // history walk (version_resolve_epoch) makes the prev dereference safe
  // under the caller's guard: the migrator finalizes flip_epoch BEFORE
  // retiring the replaced table, so a stamp observed > e was minted after
  // this snapshot's fetch_add — which means the retire of the table we
  // are stepping to happened after our guard was announced, and EBR keeps
  // it live for us.  A table we accept is never walked past.
  const ShardMap* resolve_map_epoch(const ShardMap* m, std::uint64_t e) const
      CBAT_REQUIRES(ebr_capability)
    requires(Adaptive)
  {
    for (;;) {
      std::uint64_t fe = m->flip_epoch.load(std::memory_order_acquire);
      if (fe == kEpochTbd) {
        std::uint64_t want = epoch_->load(std::memory_order_seq_cst);
        if (m->flip_epoch.compare_exchange_strong(fe, want,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
          fe = want;
        }
        // On failure fe holds the winner's stamp.
      }
      if (fe <= e || m->prev == nullptr) return m;
      m = m->prev;
    }
  }

  void run_hook(int stage)
    requires(Adaptive)
  {
    const MigrationHook h = mig_.hook.load(std::memory_order_acquire);
    if (h != nullptr) h(mig_.hook_ctx.load(std::memory_order_acquire), stage);
  }

  // Inserts (or erases) every key in `keys` on shard s, one ordinary
  // update per key, so it is safe against every other update the shard
  // sees.
  void apply_bulk(int s, const std::vector<Key>& keys, bool is_insert)
    requires(Adaptive)
  {
    Inner& t = *shards_[s];
    for (Key k : keys) {
      if (is_insert) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  }

  // One boundary move, start to finish.  Caller holds the migration gate
  // (statically enforced) and no EBR guard.  Numbered comments match
  // docs/ARCHITECTURE.md.
  bool migrate(int src, int dst) CBAT_REQUIRES(mig_.gate)
    requires(Adaptive)
  {
    // Only the migrator swaps the map and we ARE the migrator (we hold
    // the gate), so the current map cannot be retired under us.
    const ShardMap* m = map_.load(std::memory_order_acquire);
    const Key slo = m->lo_of(src);
    const Key shi = m->hi_of(src);
    if (slo > shi) return false;  // empty owned range, nothing to split

    // (0) Median-key split: shed the half of src's OWNED KEYS adjacent
    // to dst.  Splitting by keys rather than by keyspace midpoint is
    // what makes convergence geometric under any skew — each move halves
    // the hot shard's population no matter how the keys are distributed.
    Key cut_lo, cut_hi, new_upper;
    {
      EbrGuard g;
      const V* r = shards_[src]->root_version_unsafe();
      const std::int64_t cnt = version_range_count<Aug>(r, slo, shi);
      if (cnt < Migration::kMinSplitKeys) return false;
      const std::int64_t half = cnt / 2;
      std::optional<Key> med;
      if (dst == src + 1) {
        med = version_select_in_range<Aug>(r, slo, shi, cnt - half);
        if (!med || *med >= shi) return false;
        cut_lo = *med + 1;
        cut_hi = shi;
      } else {
        med = version_select_in_range<Aug>(r, slo, shi, half);
        if (!med || *med >= shi) return false;
        cut_lo = slo;
        cut_hi = *med;
      }
      new_upper = *med;
    }

    // (1) Arm the descriptor and open the copy phase.  After the grace
    // period, every update that saw kIdle has finished (its effect is
    // stamped before the E0 cut below); every later in-range update logs.
    // relaxed: all four descriptor stores are ordered before updaters
    // can act on them by the seq_cst kCopy phase store below.
    mig_.log_n.store(0, std::memory_order_relaxed);
    mig_.log_overflow.store(false, std::memory_order_relaxed);
    mig_.lo.store(cut_lo, std::memory_order_relaxed);
    mig_.hi.store(cut_hi, std::memory_order_relaxed);
    mig_.phase.store(Migration::kCopy, std::memory_order_seq_cst);
    run_hook(kMigHookCopyBegin);
    mig_quiesce();
    // Perturbation sites mark every pre-flip boundary: a yield or delay
    // here stretches the phase so updaters and readers overlap it.  Once
    // the descriptor is armed nothing below can fail, so there is no
    // rollback; the move always runs to the flip.
    CBAT_FAULT_POINT("mig.copy_begin");

    // (2) Bulk copy on a linearizable cut: collect src's range at E0 and
    // insert it into dst.  dst's copies stay invisible until the flip
    // (the pre-flip maps exclude the range from dst's owned slice).
    std::vector<Key> moved;
    {
      EbrGuard g;
      const std::uint64_t e0 =
          epoch_->fetch_add(1, std::memory_order_seq_cst);
      version_collect_range<Aug>(resolve_root(src, e0), cut_lo, cut_hi,
                                 &moved, 0);
    }
    apply_bulk(dst, moved, /*is_insert=*/true);
    run_hook(kMigHookCopied);
    CBAT_FAULT_POINT("mig.copied");

    // (3) Seal the range.  After the grace period no update is inside
    // the protocol with an un-replayed effect: kIdle-observers finished
    // before E0, kCopy-observers finished now with their keys logged,
    // and new in-range updates park until kDone.
    mig_.phase.store(Migration::kSeal, std::memory_order_seq_cst);
    mig_quiesce();
    run_hook(kMigHookSealed);
    CBAT_FAULT_POINT("mig.sealed");

    // (4) Replay the dirty log against src's sealed truth, making dst's
    // copy of the range exact.
    replay_log(src, dst, cut_lo, cut_hi);
    run_hook(kMigHookReplayed);
    CBAT_FAULT_POINT("mig.replayed");
    // Last instant before the commit point: sealed updaters are parked.
    CBAT_FAULT_POINT("mig.flip");

    // (5) Flip: publish the new boundary table, then finalize its epoch
    // stamp BEFORE retiring the old table — the order resolve_map_epoch's
    // safety argument rests on.
    {
      ShardMap* nm = new ShardMap;
      nm->upper = m->upper;
      nm->upper[dst == src + 1 ? src : dst] = new_upper;
      nm->gen = m->gen + 1;
      nm->prev = m;
      map_.store(nm, std::memory_order_seq_cst);
      std::uint64_t expect = kEpochTbd;
      nm->flip_epoch.compare_exchange_strong(
          expect, epoch_->load(std::memory_order_seq_cst),
          std::memory_order_acq_rel, std::memory_order_acquire);
      if constexpr (RPath == ReadPath::kCached) {
        // Range-cache entries are keyed by (range, root stamp) and old
        // owned ranges never recur with different contents, so survivors
        // cannot validate wrongly — the sweep just reclaims ways early.
        cache_.invalidate_all();
      }
      ebr_retire(const_cast<ShardMap*>(m));
    }
    run_hook(kMigHookFlipped);
    // Past the flip, a yield or delay checks that readers and parked
    // updaters tolerate a slow migrator.
    CBAT_FAULT_POINT("mig.flipped");

    // (6) Open the range: parked updates resume and route by the new map
    // (they read the phase seq_cst, which orders the map store before
    // their map load).
    mig_.phase.store(Migration::kDone, std::memory_order_seq_cst);
    run_hook(kMigHookOpened);
    CBAT_FAULT_POINT("mig.opened");

    // (7) Retire the moved keys' source copies.  No updater can apply a
    // range key to src after the flip (kSeal blocked it, kDone routes it
    // to dst), so one collection is complete; the erases are invisible
    // to every cut because post-flip maps exclude the range from src.
    std::vector<Key> stale;
    {
      EbrGuard g;
      version_collect_range<Aug>(shards_[src]->root_version_unsafe(), cut_lo,
                                 cut_hi, &stale, 0);
    }
    apply_bulk(src, stale, /*is_insert=*/false);
    mig_.phase.store(Migration::kIdle, std::memory_order_seq_cst);
    run_hook(kMigHookCleaned);
    CBAT_FAULT_POINT("mig.cleaned");

    Counters::bump(Counter::kShardMigrations);
    Counters::bump(Counter::kShardMigratedKeys, moved.size());
    return true;
  }

  // The sealed-range reconciliation: on a fresh cut E1 (>= the sealed
  // truth), re-examine every logged key against src and mirror its state
  // into dst.  On log overflow, diff the whole range instead.
  void replay_log(int src, int dst, Key lo, Key hi)
      CBAT_REQUIRES(mig_.gate)
    requires(Adaptive)
  {
    std::vector<Key> ins, del;
    {
      EbrGuard g;
      const std::uint64_t e1 =
          epoch_->fetch_add(1, std::memory_order_seq_cst);
      const V* sr = resolve_root(src, e1);
      if (mig_.log_overflow.load(std::memory_order_acquire)) {
        std::vector<Key> truth, copied;
        version_collect_range<Aug>(sr, lo, hi, &truth, 0);
        version_collect_range<Aug>(shards_[dst]->root_version_unsafe(), lo,
                                   hi, &copied, 0);
        std::set_difference(truth.begin(), truth.end(), copied.begin(),
                            copied.end(), std::back_inserter(ins));
        std::set_difference(copied.begin(), copied.end(), truth.begin(),
                            truth.end(), std::back_inserter(del));
      } else {
        const std::uint32_t n =
            std::min(mig_.log_n.load(std::memory_order_acquire),
                     Migration::kLogCap);
        std::vector<Key> keys(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          keys[i] = mig_.log[i].load(std::memory_order_acquire);
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        for (Key k : keys) {
          (version_contains<Aug>(sr, k) ? ins : del).push_back(k);
        }
      }
    }
    apply_bulk(dst, ins, /*is_insert=*/true);
    apply_bulk(dst, del, /*is_insert=*/false);
  }

  void repartition(Key keyspace) {
    keyspace_ = std::max<Key>(keyspace, NumShards);
    // Overflow-free ceiling: keyspace_ may be as large as kInf2, where
    // `(keyspace_ + NumShards - 1)` would wrap.
    width_ = keyspace_ / NumShards + (keyspace_ % NumShards != 0 ? 1 : 0);
    if constexpr (Adaptive) {
      // Fresh generation-1 map matching the static division; the plain
      // delete is covered by this function's single-threaded contract
      // (constructor, or key_range_hint on an empty idle set).  The stamp
      // is 1 (not kEpochTbd): the epoch counter starts at 1, so every cut
      // accepts the initial table — it has no predecessor to resolve to.
      ShardMap* nm = new ShardMap;
      for (int i = 0; i + 1 < NumShards; ++i) {
        nm->upper[i] = width_ * (i + 1) - 1;
      }
      nm->upper[NumShards - 1] = kMaxUserKey;
      // relaxed: single-threaded contract (see above); the release store
      // below publishes the table to the first concurrent reader.
      nm->flip_epoch.store(1, std::memory_order_relaxed);
      const ShardMap* old = map_.load(std::memory_order_relaxed);
      map_.store(nm, std::memory_order_release);
      delete old;
    }
  }

  Key keyspace_ = 0;
  Key width_ = 1;
  CollectHook collect_hook_ = nullptr;
  void* collect_hook_ctx_ = nullptr;
  // Snapshot epoch counter.  Starts at 1 so every assigned stamp is
  // distinguishable from kEpochTbd (0).  Padded: every update's root
  // stamp loads it, every linearizable acquisition fetch_adds it.
  // Mutable: acquisition advances it from const composite queries; it is
  // bookkeeping for the cut, not observable set state.
  mutable Padded<std::atomic<std::uint64_t>> epoch_{{1}};
  // The epoch-stamped aggregate cache (ReadPath::kCached only).  Mutable
  // for the same reason as epoch_: it is memoization filled by const
  // composite queries.
  struct NoCache {};
  [[no_unique_address]] mutable std::conditional_t<
      RPath == ReadPath::kCached, AggregateCache<NumShards>, NoCache>
      cache_;
  // shared: the current boundary table (Adaptive; null otherwise).
  // Swapped only by the migrator holding mig_.gate; loaded under an EBR
  // guard by everyone else (replaced tables are EBR-retired).  Mutable
  // for the same reason as epoch_: const composite queries help-stamp
  // flip_epoch through it.  Read-mostly; a flip rewrites the line anyway.
  mutable std::atomic<const ShardMap*> map_{nullptr};
  // Migration descriptor + controller state (Adaptive only; ~64 KiB,
  // dominated by the dirty-key log).
  [[no_unique_address]] std::conditional_t<Adaptive, Migration, NoMigration>
      mig_;
  // Padded: shards are updated by different threads; their tree roots must
  // not share cache lines.
  std::array<Padded<Inner>, NumShards> shards_;
};

// The shard counts the registry exposes ("Sharded4-BAT", ...); definitions
// live in sharded_set.cpp so the template is compiled once.
extern template class ShardedSet<Bat<SizeAug>, 1>;
extern template class ShardedSet<Bat<SizeAug>, 4>;
extern template class ShardedSet<Bat<SizeAug>, 16>;
extern template class ShardedSet<Bat<SizeAug>, 64>;
extern template class ShardedSet<BatDel<SizeAug>, 16>;
extern template class ShardedSet<Bat<SizeAug>, 4,
                                 SnapshotPolicy::kLinearizable>;
extern template class ShardedSet<Bat<SizeAug>, 16,
                                 SnapshotPolicy::kLinearizable>;
// Aggregate-cached variants (the 16-shard ones are registered as
// "Sharded16-BAT-Cached" and "Sharded16-BAT-Cached-Lin").
extern template class ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kQuiescent,
                                 ReadPath::kCached>;
extern template class ShardedSet<Bat<SizeAug>, 4,
                                 SnapshotPolicy::kLinearizable,
                                 ReadPath::kCached>;
extern template class ShardedSet<Bat<SizeAug>, 16, SnapshotPolicy::kQuiescent,
                                 ReadPath::kCached>;
extern template class ShardedSet<Bat<SizeAug>, 16,
                                 SnapshotPolicy::kLinearizable,
                                 ReadPath::kCached>;
// Adaptive variants (the 16-shard ones are registered as
// "Sharded16-BAT-Adapt" and "Sharded16-BAT-Adapt-Lin").
extern template class ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kQuiescent,
                                 ReadPath::kDirect, true>;
extern template class ShardedSet<Bat<SizeAug>, 4,
                                 SnapshotPolicy::kLinearizable,
                                 ReadPath::kDirect, true>;
extern template class ShardedSet<Bat<SizeAug>, 16, SnapshotPolicy::kQuiescent,
                                 ReadPath::kDirect, true>;
extern template class ShardedSet<Bat<SizeAug>, 16,
                                 SnapshotPolicy::kLinearizable,
                                 ReadPath::kDirect, true>;

}  // namespace cbat
