// Chaos suite for the deterministic fault-injection layer (ISSUE 9).
//
// Sweeps seeded FaultPlans across every instrumented site and two thread
// regimes ({single, oversubscribed}), then checks the two properties the
// graceful-degradation work promises: std::set-oracle equivalence (no
// injected fault may lose or invent a key) and version-tree validity (the
// BST + augmentation invariants hold on every surviving root).  The suite
// is meaningless without the hooks compiled in, hence the guard:
#if !defined(CBAT_FAULT_INJECTION) || !CBAT_FAULT_INJECTION
#error "fault_injection_test requires -DCBAT_FAULT_INJECTION=ON"
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/bat_tree.h"
#include "core/version_queries.h"
#include "reclamation/ebr.h"
#include "same_key_race.h"
#include "shard/sharded_set.h"
#include "util/counters.h"
#include "util/fault.h"
#include "util/keys.h"

namespace cbat {
namespace {

// A single BAT: the update path's pool, Propagate and EBR sites.
using BT = Bat<SizeAug>;
// Adaptive AND aggregate-cached: one structure reaches the migration sites
// and the aggregate-cache seqlock fills.
using SH = ShardedSet<Bat<SizeAug>, 4, SnapshotPolicy::kQuiescent,
                      ReadPath::kCached, true>;
// BAT-EagerDel for the same-key races, where an unsuccessful update may
// linearize at a root read.
using BE = BatEagerDel<SizeAug>;

constexpr Key kKeySpace = 1 << 14;

// Workload PRNG — deliberately separate from the fault layer's stream so a
// plan's injections never perturb which keys a thread touches.
std::uint64_t wmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Plans executed and the union of sites visited, accumulated across every
// chaos run so the final coverage test can audit the whole sweep.
int g_plans_run = 0;
std::set<std::string> g_sites_union;

int oversubscribed_threads() {
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(2 * hw, 12u));
}

// Thread t's op i: key class k % threads == t, so streams on different
// threads commute and a sequential per-thread replay is an exact oracle.
Key op_key(std::uint64_t h, int threads, int t) {
  const Key classes = kKeySpace / threads;
  return static_cast<Key>((h >> 16) % classes) * threads + t;
}

void validate_versions(BT& s) {
  EbrGuard g;
  EXPECT_TRUE(version_tree_valid<SizeAug>(
      s.root_version_unsafe(), std::numeric_limits<Key>::min(), kInf2));
}
void validate_versions(BE& s) {
  EbrGuard g;
  EXPECT_TRUE(version_tree_valid<SizeAug>(
      s.root_version_unsafe(), std::numeric_limits<Key>::min(), kInf2));
}
void validate_versions(SH& s) {
  EbrGuard g;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(version_tree_valid<SizeAug>(
        s.shard_at(i).root_version_unsafe(), std::numeric_limits<Key>::min(),
        kInf2))
        << "shard " << i;
  }
}

// One chaos run: arm the plan, hammer the set from `threads` workers (plus
// a migrator ping-ponging a shard boundary where the structure supports
// it), then disarm and check oracle equivalence + version validity.
template <class Set>
void chaos_run(Set& s, const FaultPlan& plan, int threads,
               int ops_per_thread) {
  fault_arm(plan);
  std::atomic<bool> stop{false};
  std::thread migrator;
  if constexpr (requires { s.rebalance_once(0, 1); }) {
    migrator = std::thread([&s, &stop] {
      int flip = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (flip == 0) {
          s.rebalance_once(0, 1);
        } else {
          s.rebalance_once(1, 0);
        }
        flip ^= 1;
        std::this_thread::yield();
      }
    });
  }

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&s, &plan, threads, ops_per_thread, t] {
      std::uint64_t h = plan.seed * 0x9e3779b97f4a7c15ULL + t;
      for (int i = 0; i < ops_per_thread; ++i) {
        h = wmix(h);
        const Key k = op_key(h, threads, t);
        if ((h & 1) != 0) {
          s.insert(k);
        } else {
          s.erase(k);
        }
        if ((i & 15) == 0) {
          // Composite reads; their answers are checked for sanity only —
          // exact answers race with concurrent updates by design.
          // range_aggregate is what drives the aggregate-cache fills (the
          // seqlock fault sites).
          EXPECT_GE(s.size(), 0);
          EXPECT_GE(s.rank(k), 0);
          EXPECT_GE(s.range_count(kKeySpace / 4, kKeySpace / 2), 0);
          EXPECT_GE(s.range_aggregate(0, kKeySpace / 2), 0);
          (void)s.contains(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  if (migrator.joinable()) migrator.join();
  fault_disarm();

  ++g_plans_run;
  for (const std::string& site : fault_sites_seen()) g_sites_union.insert(site);

  // Sequential oracle replay (disjoint key classes commute).
  std::set<Key> oracle;
  for (int t = 0; t < threads; ++t) {
    std::uint64_t h = plan.seed * 0x9e3779b97f4a7c15ULL + t;
    for (int i = 0; i < ops_per_thread; ++i) {
      h = wmix(h);
      const Key k = op_key(h, threads, t);
      if ((h & 1) != 0) {
        oracle.insert(k);
      } else {
        oracle.erase(k);
      }
    }
  }

  ASSERT_EQ(s.size(), static_cast<std::int64_t>(oracle.size()));
  for (Key k : oracle) ASSERT_TRUE(s.contains(k)) << "lost key " << k;
  for (Key k = 0; k < kKeySpace; k += 13) {
    ASSERT_EQ(s.contains(k), oracle.count(k) != 0) << "key " << k;
  }
  // Order statistics agree with the oracle at a few cuts.
  if (!oracle.empty()) {
    const Key mid = *std::next(oracle.begin(), oracle.size() / 2);
    const std::int64_t want =
        static_cast<std::int64_t>(std::distance(
            oracle.begin(), oracle.upper_bound(mid)));
    ASSERT_EQ(s.rank(mid), want);
  }
  validate_versions(s);
}

// Both regimes for one plan.  A fresh structure per regime: plans must not
// contaminate each other through leftover state.
template <class Set>
Set make_set() {
  if constexpr (std::is_constructible_v<Set, Key>) {
    return Set(kKeySpace);  // sharded: keyspace hint sizes the shard map
  } else {
    return Set();
  }
}

template <class Set>
void chaos_plan(const FaultPlan& plan) {
  {
    Set s = make_set<Set>();
    chaos_run(s, plan, /*threads=*/1, /*ops_per_thread=*/4000);
  }
  {
    Set s = make_set<Set>();
    chaos_run(s, plan, oversubscribed_threads(), /*ops_per_thread=*/800);
  }
  Ebr::drain();
}

const std::uint64_t kSeeds[] = {0x1, 0x2f1, 0x5aa5, 0xdead};

FaultPlan all_sites_plan(std::uint64_t seed, std::uint32_t yield_pm,
                         std::uint32_t delay_pm, std::uint32_t fail_pm) {
  FaultPlan p;
  p.seed = seed;
  p.yield_permil = yield_pm;
  p.delay_permil = delay_pm;
  p.fail_permil = fail_pm;
  return p;
}

FaultPlan one_site_plan(std::uint64_t seed, const char* site) {
  FaultPlan p;
  p.seed = seed;
  p.yield_permil = 64;
  p.delay_permil = 64;
  p.fail_permil = 300;
  p.only_site = site;
  return p;
}

// Yields and delays only, at one site: for perturbation-only sites, where
// a forced failure has no path to take.
FaultPlan one_site_perturb_plan(std::uint64_t seed, const char* site) {
  FaultPlan p;
  p.seed = seed;
  p.yield_permil = 512;
  p.delay_permil = 256;
  p.only_site = site;
  return p;
}

TEST(FaultInjection, ArmedDecisionSequencesAreDeterministic) {
  // Determinism is a property of the decision stream, not of whole-process
  // replay: protocol-level visit sequences legitimately differ between
  // rounds (pool free lists warm up, the EBR epoch moves on), so the test
  // drives the macros directly with a fixed visit sequence.
  const FaultPlan plan = all_sites_plan(0xfeed, 200, 100, 30);
  std::uint64_t injected[2];
  std::uint64_t forced[2];
  for (int round = 0; round < 2; ++round) {
    fault_arm(plan);
    std::uint64_t sink = 0;
    for (int i = 0; i < 20000; ++i) {
      CBAT_FAULT_POINT("chaos.det_point");
      if (CBAT_FAULT_FORCE("chaos.det_force")) ++sink;
    }
    fault_disarm();
    injected[round] = fault_injections();
    forced[round] = fault_forced_failures();
    EXPECT_GT(injected[round], 0u);
    EXPECT_EQ(forced[round], sink);
  }
  // Same plan, same thread, same visit sequence: exact replay.
  EXPECT_EQ(injected[0], injected[1]);
  EXPECT_EQ(forced[0], forced[1]);
}

TEST(FaultInjection, AllSiteShapesBat) {
  for (std::uint64_t seed : kSeeds) {
    chaos_plan<BT>(all_sites_plan(seed, 250, 0, 0));    // yield-heavy
    chaos_plan<BT>(all_sites_plan(seed, 0, 150, 0));    // delay-heavy
    chaos_plan<BT>(all_sites_plan(seed, 100, 60, 40));  // mixed failures
  }
}

TEST(FaultInjection, AllSiteShapesShardedSet) {
  for (std::uint64_t seed : kSeeds) {
    chaos_plan<SH>(all_sites_plan(seed, 250, 0, 0));
    chaos_plan<SH>(all_sites_plan(seed, 0, 150, 0));
    chaos_plan<SH>(all_sites_plan(seed, 100, 60, 40));
  }
}

TEST(FaultInjection, PerSiteFailuresBat) {
  const char* sites[] = {
      "pool.alloc_fail",
      "bat.refresh_cas",
      "ebr.advance_skip",
  };
  for (std::uint64_t seed : kSeeds) {
    for (const char* site : sites) chaos_plan<BT>(one_site_plan(seed, site));
  }
}

// Stretches each pre-flip migration phase in turn while updaters and
// readers run across it.
TEST(FaultInjection, PerSitePerturbationsShardedSet) {
  const char* sites[] = {
      "mig.copy_begin", "mig.copied", "mig.sealed", "mig.replayed", "mig.flip",
  };
  const auto before = Counters::snapshot();
  for (std::uint64_t seed : kSeeds) {
    for (const char* site : sites) {
      chaos_plan<SH>(one_site_perturb_plan(seed, site));
    }
  }
  const auto after = Counters::snapshot();
  // Moves must actually have completed under the stretched phases — and
  // every run above still ended oracle-equal.
  EXPECT_GT(after[Counter::kShardMigrations],
            before[Counter::kShardMigrations]);
}

// --- same-key races on the direct update path ------------------------------

// Unsuccessful updates that still ran Propagate (their root check
// disagreed), summed over every race below.
std::uint64_t g_race_fallbacks = 0;
std::uint64_t g_race_unsuccessful = 0;

// Every thread applies the same seeded update to the same key, phase by
// phase (tests/same_key_race.h), while the plan perturbs the winner's
// refreshes.  The outcome is interleaving-free: each phase changes the set
// iff the sequential oracle says so, through exactly one thread, and every
// loser observes the state it reported.
void chaos_race(const FaultPlan& plan, int threads) {
  BE t;
  std::set<Key> oracle;
  for (Key k = 0; k < kKeySpace; k += 4) {  // depth for the Propagates
    t.insert(k);
    oracle.insert(k);
  }
  std::vector<RacePhase> phases;
  std::vector<int> want_wins;
  std::uint64_t h = plan.seed;
  for (int i = 0; i < 400; ++i) {
    h = wmix(h);
    // A few dozen hot keys, half of them prefilled, so phases alternate
    // between effective and ineffective updates on both sides.
    const Key k = static_cast<Key>((h >> 8) % 64) * (kKeySpace / 64) +
                  static_cast<Key>((h >> 20) & 1);
    const bool is_insert = (h & 1) != 0;
    phases.push_back({k, is_insert});
    want_wins.push_back(is_insert ? (oracle.insert(k).second ? 1 : 0)
                                  : static_cast<int>(oracle.erase(k)));
  }

  const auto before = Counters::snapshot();
  fault_arm(plan);
  const auto observes = [&t](Key k, bool present) {
    return t.contains(k) == present;
  };
  const RaceResult r = race_same_keys(t, threads, phases, observes);
  fault_disarm();
  const auto after = Counters::snapshot();

  ++g_plans_run;
  for (const std::string& site : fault_sites_seen()) g_sites_union.insert(site);

  std::uint64_t successes = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    ASSERT_EQ(r.wins[i], want_wins[i]) << "phase " << i;
    successes += static_cast<std::uint64_t>(r.wins[i]);
  }
  ASSERT_EQ(r.bad_observations, 0);
  const std::uint64_t props =
      after[Counter::kPropagateCalls] - before[Counter::kPropagateCalls];
  ASSERT_GE(props, successes);
  g_race_fallbacks += props - successes;
  g_race_unsuccessful += static_cast<std::uint64_t>(r.failed_updates);

  ASSERT_EQ(t.size(), static_cast<std::int64_t>(oracle.size()));
  for (Key k : oracle) ASSERT_TRUE(t.contains(k)) << "lost key " << k;
  for (const RacePhase& p : phases) {
    ASSERT_EQ(t.contains(p.key), oracle.count(p.key) != 0) << p.key;
  }
  const Key mid = *std::next(oracle.begin(), oracle.size() / 2);
  const std::int64_t want =
      static_cast<std::int64_t>(std::distance(
          oracle.begin(), oracle.upper_bound(mid)));
  ASSERT_EQ(t.rank(mid), want);
  validate_versions(t);
}

TEST(FaultInjection, SameKeyRacesBatEagerDel) {
  for (std::uint64_t seed : kSeeds) {
    FaultPlan slow_refresh;  // stretch the winner's Propagate
    slow_refresh.seed = seed;
    slow_refresh.yield_permil = 200;
    slow_refresh.delay_permil = 200;
    slow_refresh.only_site = "bat.refresh_build";
    const FaultPlan mixed = all_sites_plan(seed, 100, 60, 40);
    for (const FaultPlan& plan : {slow_refresh, mixed}) {
      chaos_race(plan, /*threads=*/2);
      chaos_race(plan, oversubscribed_threads());
    }
  }
  Ebr::drain();
  // Coverage floor: the perturbed Propagates must leave losers racing
  // ahead of the root, or the fallback branch went untested.
  std::printf("same-key chaos: %llu unsuccessful updates, %llu fell back\n",
              static_cast<unsigned long long>(g_race_unsuccessful),
              static_cast<unsigned long long>(g_race_fallbacks));
  EXPECT_GE(g_race_fallbacks * 20, g_race_unsuccessful);  // >= 5%
}

// Runs last (gtest preserves definition order within a file): audits the
// sweep itself, not the structures.
TEST(FaultInjection, SweepCoversThePlanMatrixAndTheInstrumentedSites) {
  EXPECT_GE(g_plans_run, 64) << "acceptance: >= 64 seeded plans";
  // Sites every sweep must structurally reach.  The remaining sites
  // (contention-dependent waits, cache fills) are exercised by the plans
  // above but can be scheduler-dependent, so their absence is not an
  // error; print the union for the curious.
  const char* must_see[] = {
      "pool.alloc_fail", "ebr.retire",     "ebr.advance", "bat.refresh_build",
      "bat.refresh_cas", "bat.root_stamp", "mig.copy_begin", "mig.flipped",
      "mig.cleaned",
  };
  for (const char* site : must_see) {
    EXPECT_TRUE(g_sites_union.count(site) != 0) << "never visited: " << site;
  }
  std::string all;
  for (const std::string& s : g_sites_union) all += s + " ";
  std::printf("chaos sweep: %d plans, sites visited: %s\n", g_plans_run,
              all.c_str());
}

}  // namespace
}  // namespace cbat
