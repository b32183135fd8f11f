// Regression tests for the workload generator and the driver prefill:
//   * next_op threshold coverage: a mix summing to 100 must make every
//     0% class unreachable for every 32-bit draw (the old per-class
//     truncation left a ~2^-32 window that emitted queries on 0%-query
//     mixes, biasing every published number and hitting structures
//     without order statistics);
//   * next_range_lo: range starts must cover every in-bounds position,
//     and a range wider than the keyspace must not pin lo to 0;
//   * prefill: the prefilled size must be exactly max_key/2, not overshot
//     by per-thread insert batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "bench/adapters.h"
#include "bench/driver.h"
#include "bench/workload.h"

namespace cbat::bench {
namespace {

using Op = OpStream::Op;

OpStream make_stream(const Workload& w) { return OpStream(w, 7, nullptr); }

// The r values where misclassification can happen: all class boundaries
// are multiples of 2^32/100, so probing every boundary neighborhood plus
// the extremes covers every possible rounding error.
std::vector<std::uint64_t> boundary_draws() {
  std::vector<std::uint64_t> rs = {0, 1, (1ULL << 32) - 1, (1ULL << 32) - 2};
  for (int pct = 1; pct < 100; ++pct) {
    const std::uint64_t b =
        static_cast<std::uint64_t>(pct * (4294967296.0 / 100.0));
    for (std::int64_t d = -2; d <= 2; ++d) {
      const std::int64_t r = static_cast<std::int64_t>(b) + d;
      if (r >= 0 && r < (1LL << 32)) {
        rs.push_back(static_cast<std::uint64_t>(r));
      }
    }
  }
  return rs;
}

TEST(OpStreamMix, ZeroPercentClassesAreUnreachable) {
  const struct {
    double i, d, f, q;
  } mixes[] = {
      {50, 50, 0, 0},   {100, 0, 0, 0},   {0, 100, 0, 0}, {0, 0, 100, 0},
      {0, 0, 0, 100},   {25, 25, 50, 0},  {1, 1, 98, 0},  {50, 0, 50, 0},
      {0, 50, 0, 50},   {33.3, 33.3, 33.4, 0},
  };
  const auto rs = boundary_draws();
  for (const auto& m : mixes) {
    Workload w;
    w.insert_pct = m.i;
    w.delete_pct = m.d;
    w.find_pct = m.f;
    w.query_pct = m.q;
    OpStream stream = make_stream(w);
    for (const std::uint64_t r : rs) {
      const Op op = stream.op_for(r);
      if (m.i <= 0) {
        ASSERT_NE(op, Op::kInsert) << m.i << " r=" << r;
      }
      if (m.d <= 0) {
        ASSERT_NE(op, Op::kDelete) << m.d << " r=" << r;
      }
      if (m.f <= 0) {
        ASSERT_NE(op, Op::kFind) << m.f << " r=" << r;
      }
      if (m.q <= 0) {
        ASSERT_NE(op, Op::kQuery)
            << "0%-query mix " << w.mix_string() << " emitted a query at r="
            << r;
      }
    }
  }
}

TEST(OpStreamMix, NonZeroClassesKeepTheirShare) {
  Workload w;
  w.insert_pct = 10;
  w.delete_pct = 20;
  w.find_pct = 30;
  w.query_pct = 40;
  OpStream stream = make_stream(w);
  // Exact threshold positions: cumulative 10%, 30%, 60% of 2^32.
  EXPECT_EQ(stream.op_for(0), Op::kInsert);
  EXPECT_EQ(stream.op_for(429496729), Op::kInsert);   // just under 10%
  EXPECT_EQ(stream.op_for(429496730), Op::kDelete);   // at 10%
  EXPECT_EQ(stream.op_for(1288490188), Op::kDelete);  // just under 30%
  EXPECT_EQ(stream.op_for(1288490189), Op::kFind);    // at 30%
  EXPECT_EQ(stream.op_for(2576980377), Op::kFind);    // just under 60%
  EXPECT_EQ(stream.op_for(2576980378), Op::kQuery);   // at 60%
  EXPECT_EQ(stream.op_for((1ULL << 32) - 1), Op::kQuery);
  // And a long sampled stream lands close to the nominal shares.
  std::int64_t counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 400000; ++i) {
    ++counts[static_cast<int>(stream.next_op())];
  }
  EXPECT_NEAR(counts[0] / 400000.0, 0.10, 0.01);
  EXPECT_NEAR(counts[1] / 400000.0, 0.20, 0.01);
  EXPECT_NEAR(counts[2] / 400000.0, 0.30, 0.01);
  EXPECT_NEAR(counts[3] / 400000.0, 0.40, 0.01);
}

TEST(OpStreamRange, LoCoversEveryInBoundsStart) {
  Workload w;
  w.max_key = 100;
  w.rq_size = 90;
  OpStream stream = make_stream(w);
  std::set<Key> seen;
  for (int i = 0; i < 5000; ++i) {
    const Key lo = stream.next_range_lo();
    ASSERT_GE(lo, 0);
    // Every start must keep [lo, lo + rq - 1] inside [0, max_key).
    ASSERT_LE(lo + w.rq_size - 1, w.max_key - 1) << lo;
    seen.insert(lo);
  }
  // All 11 valid starts appear, including max_key - rq_size itself (the
  // old hi_bound skipped it).
  EXPECT_EQ(seen.size(), 11u);
  EXPECT_TRUE(seen.count(10)) << "lo = max_key - rq_size must be reachable";
}

TEST(OpStreamRange, KeyspaceWideRangeGetsRandomLo) {
  Workload w;
  w.max_key = 1000;
  w.rq_size = 5000;  // wider than the keyspace: old code pinned lo to 0
  OpStream stream = make_stream(w);
  std::set<Key> seen;
  for (int i = 0; i < 2000; ++i) {
    const Key lo = stream.next_range_lo();
    ASSERT_GE(lo, 0);
    ASSERT_LT(lo, w.max_key);
    seen.insert(lo);
  }
  EXPECT_GT(seen.size(), 100u)
      << "degenerate bound pinned every range query to lo = 0";
}

TEST(Prefill, FillsToExactlyHalfTheKeyRange) {
  for (const int threads : {1, 4}) {
    auto set = make_structure("BAT");
    ASSERT_NE(set, nullptr);
    Workload w;
    w.max_key = 20000;
    prefill(*set, w, threads, /*seed=*/99);
    // Exactly max_key/2: the claim-based batches cannot overshoot (the old
    // per-thread 256-op counters overshot by up to threads*256).
    EXPECT_EQ(set->size(), w.max_key / 2) << threads << " threads";
  }
}

TEST(Prefill, TinyKeyRange) {
  auto set = make_structure("BAT");
  Workload w;
  w.max_key = 3;
  prefill(*set, w, 4, 5);
  EXPECT_EQ(set->size(), 1);
  w.max_key = 1;  // target 0: must terminate without inserting
  auto empty = make_structure("BAT");
  prefill(*empty, w, 2, 5);
  EXPECT_EQ(empty->size(), 0);
}

}  // namespace
}  // namespace cbat::bench
