// Unit tests for src/util: PRNG, Zipfian sampler, flat set, registry,
// counters; and the object pool's prefetch hint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "reclamation/pool.h"
#include "util/counters.h"
#include "util/flat_set.h"
#include "util/keys.h"
#include "util/random.h"
#include "util/thread_registry.h"
#include "util/zipf.h"

namespace cbat {
namespace {

TEST(Keys, SentinelOrdering) {
  EXPECT_LT(kInf1, kInf2);
  EXPECT_LT(kMaxUserKey, kInf1);
  EXPECT_TRUE(is_sentinel_key(kInf1));
  EXPECT_TRUE(is_sentinel_key(kInf2));
  EXPECT_FALSE(is_sentinel_key(kMaxUserKey));
  EXPECT_FALSE(is_sentinel_key(0));
  EXPECT_FALSE(is_sentinel_key(-5));
}

TEST(Random, DeterministicPerSeed) {
  Xoshiro256 a(42), b(42), c(43);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) all_equal_c = false;
  }
  EXPECT_FALSE(all_equal_c);
}

TEST(Random, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Random, RangeInclusive) {
  Xoshiro256 rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, Uniform01Bounds) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Zipf, RangeAndSkew) {
  Xoshiro256 rng(1);
  ZipfGenerator zipf(1000, 0.99);
  std::vector<int> hist(1001, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = zipf.next(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    ++hist[v];
  }
  // Item 1 must dominate; the top-10 items should take a large share.
  EXPECT_GT(hist[1], hist[10]);
  EXPECT_GT(hist[1], hist[100]);
  int top10 = 0;
  for (int i = 1; i <= 10; ++i) top10 += hist[i];
  EXPECT_GT(top10, kDraws / 4);  // heavy skew at theta=0.99
}

TEST(Zipf, FrequencyMatchesTheory) {
  // P(k) proportional to 1/k^theta; check the 1-vs-2 ratio.
  Xoshiro256 rng(5);
  const double theta = 0.95;
  ZipfGenerator zipf(100000, theta);
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 400000; ++i) {
    const auto v = zipf.next(rng);
    if (v == 1) ++c1;
    if (v == 2) ++c2;
  }
  ASSERT_GT(c2, 0);
  EXPECT_NEAR(static_cast<double>(c1) / c2, std::pow(2.0, theta), 0.25);
}

TEST(Zipf, MildThetaCoversRange) {
  Xoshiro256 rng(3);
  ZipfGenerator zipf(50, 0.5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 20000; ++i) seen.insert(zipf.next(rng));
  EXPECT_EQ(seen.size(), 50u);  // every item eventually drawn
}

TEST(FlatPtrSet, InsertContains) {
  FlatPtrSet s;
  int a, b, c;
  EXPECT_FALSE(s.contains(&a));
  EXPECT_TRUE(s.insert(&a));
  EXPECT_FALSE(s.insert(&a));
  EXPECT_TRUE(s.insert(&b));
  EXPECT_TRUE(s.contains(&a));
  EXPECT_TRUE(s.contains(&b));
  EXPECT_FALSE(s.contains(&c));
  EXPECT_EQ(s.size(), 2u);
}

TEST(FlatPtrSet, ClearIsCheapAndCorrect) {
  FlatPtrSet s;
  std::vector<int> storage(100);
  for (auto& x : storage) s.insert(&x);
  EXPECT_EQ(s.size(), 100u);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  for (auto& x : storage) EXPECT_FALSE(s.contains(&x));
  // Reusable after clear.
  EXPECT_TRUE(s.insert(&storage[0]));
  EXPECT_TRUE(s.contains(&storage[0]));
}

TEST(FlatPtrSet, GrowsPastInitialCapacity) {
  FlatPtrSet s(16);
  std::vector<long> storage(5000);
  for (auto& x : storage) ASSERT_TRUE(s.insert(&x));
  for (auto& x : storage) ASSERT_TRUE(s.contains(&x));
  EXPECT_EQ(s.size(), storage.size());
}

TEST(FlatPtrSet, ManyClearCycles) {
  FlatPtrSet s;
  int x;
  for (int i = 0; i < 100000; ++i) {
    s.insert(&x);
    ASSERT_TRUE(s.contains(&x));
    s.clear();
    ASSERT_FALSE(s.contains(&x));
  }
}

TEST(ThreadRegistry, DistinctIdsAcrossConcurrentThreads) {
  // Slots are recycled at thread exit, so ids are only unique among threads
  // that are alive at the same time: hold all threads at a barrier until
  // every one has registered.
  constexpr int kThreads = 8;
  std::vector<int> ids(kThreads, -1);
  std::atomic<int> registered{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&, i] {
      ids[i] = ThreadRegistry::thread_id();
      registered.fetch_add(1);
      while (registered.load() < kThreads) std::this_thread::yield();
    });
  }
  for (auto& t : ts) t.join();
  std::set<int> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
  for (int id : ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, kMaxThreads);
  }
}

TEST(ThreadRegistry, StableWithinThread) {
  const int a = ThreadRegistry::thread_id();
  const int b = ThreadRegistry::thread_id();
  EXPECT_EQ(a, b);
}

TEST(Counters, BumpAndSnapshot) {
  Counters::reset();
  Counters::bump(Counter::kRefreshCas);
  Counters::bump(Counter::kRefreshCas, 4);
  Counters::bump(Counter::kDelegations);
  const auto snap = Counters::snapshot();
  EXPECT_EQ(snap[Counter::kRefreshCas], 5u);
  EXPECT_EQ(snap[Counter::kDelegations], 1u);
  EXPECT_EQ(snap[Counter::kScxAttempts], 0u);
  Counters::reset();
  EXPECT_EQ(Counters::snapshot()[Counter::kRefreshCas], 0u);
}

TEST(Counters, AggregatesAcrossThreads) {
  Counters::reset();
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([] {
      for (int j = 0; j < 100; ++j) Counters::bump(Counter::kPropagateCalls);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(Counters::snapshot()[Counter::kPropagateCalls], 400u);
  Counters::reset();
}

// A pooled type private to these tests, so no other code shares its
// thread-local free list.  56 bytes, like Node and Version: at offset 32
// mod 64 a slot spans two cache lines.
struct PoolProbe {
  char bytes[56];
};
using ProbePool = Pool<PoolProbe>;

TEST(PoolPrefetch, IsOnlyAHint) {
  // Empty free list: nothing to prefetch, nothing allocated.
  ASSERT_EQ(ProbePool::free_count(), 0u);
  ProbePool::prefetch(0);
  ProbePool::prefetch(4);
  EXPECT_EQ(ProbePool::free_count(), 0u);

  void* a = ::operator new(sizeof(PoolProbe));
  void* b = ::operator new(sizeof(PoolProbe));
  void* c = ::operator new(sizeof(PoolProbe));
  ProbePool::dealloc(a);
  ProbePool::dealloc(b);
  ProbePool::dealloc(c);
  ASSERT_EQ(ProbePool::free_count(), 3u);
  // n may exceed the list length; the list is neither grown nor drained.
  ProbePool::prefetch(10);
  ProbePool::prefetch(3);
  ProbePool::prefetch(1);
  EXPECT_EQ(ProbePool::free_count(), 3u);

  // alloc() still hands the slots back in LIFO order.
  EXPECT_EQ(ProbePool::alloc(), c);
  EXPECT_EQ(ProbePool::alloc(), b);
  EXPECT_EQ(ProbePool::alloc(), a);
  EXPECT_EQ(ProbePool::free_count(), 0u);
  ::operator delete(a);
  ::operator delete(b);
  ::operator delete(c);
}

}  // namespace
}  // namespace cbat
