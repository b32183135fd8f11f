// In-memory span tracing for the benchmark's traced run.
//
// Spans are recorded only in the benchmark's own files, around its calls
// into each layer: the root span of every operation is the API call, and
// the forest's inner trees are wrapped by TracedBat (a forwarding inner
// type), so the shard layer's self time is the root span minus its
// children.  Every span is folded into per-name totals; the first
// kMaxRawSpans of each thread are also kept raw and written out at exit.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "api/ordered_set.h"
#include "core/bat_tree.h"
#include "gen.h"
#include "shard/sharded_set.h"
#include "util/padded.h"
#include "util/thread_registry.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum SpanName : std::uint8_t {
  // Root spans: the API call, one per operation kind.
  kApiInsert,
  kApiErase,
  kApiFind,
  kApiRank,
  kApiSelect,
  kApiRangeCount,
  kApiRangeAggregate,
  // Forest children.
  kShardSnapshot,  // ShardedSet::Snapshot construction (the epoch cut)
  kShardQuery,     // the composite query on the pinned snapshot
  kBatInsert,      // inner BAT calls made by the shard layer
  kBatErase,
  kBatContains,
  kNumSpanNames
};

inline const char* span_name(int s) {
  static constexpr const char* kNames[kNumSpanNames] = {
      "api.insert",     "api.erase",      "api.find",
      "api.rank",       "api.select",     "api.range_count",
      "api.range_aggregate", "shard.snapshot", "shard.query",
      "bat.insert",     "bat.erase",      "bat.contains"};
  return kNames[s];
}

inline SpanName root_span_of(OpKind k) {
  return static_cast<SpanName>(static_cast<int>(k));
}

struct RawSpan {
  std::uint64_t op_id;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;  // index into the same thread's raw spans, -1 = root
  std::uint8_t name;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

// One worker thread's spans.  Not thread-safe: each worker owns one and
// installs it as the thread's current recorder for the traced phase.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxRawSpans = 1 << 14;

  SpanRecorder() { raw_.reserve(kMaxRawSpans); }

  void begin_op(std::uint64_t op_id) { op_id_ = op_id; }

  void open(SpanName n) {
    Open& o = stack_[depth_++];
    o.name = n;
    o.child_ns = 0;
    o.raw = -1;
    if (raw_.size() < kMaxRawSpans) {
      o.raw = static_cast<std::int32_t>(raw_.size());
      raw_.push_back({op_id_, 0, 0, depth_ > 1 ? stack_[depth_ - 2].raw : -1,
                      static_cast<std::uint8_t>(n)});
    }
    o.start = now_ns();
  }

  void close() {
    const std::uint64_t end = now_ns();
    Open& o = stack_[--depth_];
    const std::uint64_t dur = end - o.start;
    SpanTotals& t = totals_[o.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (o.raw >= 0) {
      raw_[static_cast<std::size_t>(o.raw)].start_ns = o.start;
      raw_[static_cast<std::size_t>(o.raw)].end_ns = end;
    }
  }

  const std::array<SpanTotals, kNumSpanNames>& totals() const {
    return totals_;
  }
  const std::vector<RawSpan>& raw() const { return raw_; }

  // The calling thread's active recorder (null outside a traced phase).
  static SpanRecorder*& current() {
    thread_local SpanRecorder* r = nullptr;
    return r;
  }

 private:
  struct Open {
    std::uint64_t start;
    std::uint64_t child_ns;
    std::int32_t raw;
    SpanName name;
  };

  std::uint64_t op_id_ = 0;
  int depth_ = 0;
  std::array<Open, 8> stack_{};
  std::array<SpanTotals, kNumSpanNames> totals_{};
  std::vector<RawSpan> raw_;
};

// RAII span on the thread's current recorder; a no-op when there is none.
class Span {
 public:
  explicit Span(SpanName n) : r_(SpanRecorder::current()) {
    if (r_ != nullptr) r_->open(n);
  }
  ~Span() {
    if (r_ != nullptr) r_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* r_;
};

// The forest's inner tree for the traced run: a Bat<SizeAug> (the inner
// type of Sharded16-BAT-Lin) whose calls from the shard layer are spans.
class TracedBat {
 public:
  using Inner = cbat::Bat<cbat::SizeAug>;
  using AugType = Inner::AugType;

  bool insert(Key k) {
    Span s(kBatInsert);
    return t_.insert(k);
  }
  bool erase(Key k) {
    Span s(kBatErase);
    return t_.erase(k);
  }
  bool contains(Key k) const {
    Span s(kBatContains);
    return t_.contains(k);
  }
  const Inner::V* root_version_unsafe() const
      CBAT_REQUIRES(cbat::ebr_capability) {
    return t_.root_version_unsafe();
  }
  void set_epoch_source(std::atomic<std::uint64_t>* counter,
                        bool unique_stamps = false) {
    t_.set_epoch_source(counter, unique_stamps);
  }
  void warm_up(std::size_t expected_updates) { t_.warm_up(expected_updates); }

 private:
  Inner t_;
};

// Sharded16-BAT-Lin's type over TracedBat shards, behind the same abstract
// interface the registry structures are driven through.  Composite queries
// construct the Snapshot explicitly, so the epoch cut (shard.snapshot) and
// the query on it (shard.query) are separate spans.
class TracedForestSet final : public cbat::api::AbstractOrderedSet {
 public:
  using Forest =
      cbat::ShardedSet<TracedBat, 16, cbat::SnapshotPolicy::kLinearizable>;
  static constexpr int kShards = Forest::num_shards();

  explicit TracedForestSet(Key keyspace)
      : f_(keyspace), rows_(cbat::kMaxThreads) {}

  bool insert(Key k) override {
    count_update(k);
    return f_.insert(k);
  }
  bool erase(Key k) override {
    count_update(k);
    return f_.erase(k);
  }
  bool contains(Key k) override { return f_.contains(k); }
  std::int64_t size() override { return f_.size(); }
  bool supports_order_statistics() const override { return true; }
  std::int64_t rank(Key k) override {
    return query([&](const Forest::Snapshot& s) { return s.rank(k); });
  }
  Key select_query(std::int64_t i) override {
    return query(
        [&](const Forest::Snapshot& s) { return s.select(i).value_or(0); });
  }
  std::int64_t range_count(Key lo, Key hi) override {
    return query(
        [&](const Forest::Snapshot& s) { return s.range_count(lo, hi); });
  }
  std::int64_t range_aggregate(Key lo, Key hi) override {
    return query(
        [&](const Forest::Snapshot& s) { return s.range_aggregate(lo, hi); });
  }
  cbat::api::Consistency consistency() const override {
    return cbat::api::Consistency::kLinearizable;
  }
  void warm_up(std::size_t n) override { f_.warm_up(n); }

  // Updates routed to each shard, over all threads.  Call only after the
  // updating threads have joined.
  std::array<std::uint64_t, kShards> shard_updates() const {
    std::array<std::uint64_t, kShards> out{};
    for (const auto& row : rows_) {
      for (int s = 0; s < kShards; ++s) out[s] += row.value[s];
    }
    return out;
  }

 private:
  template <class Fn>
  std::int64_t query(Fn fn) {
    std::optional<Forest::Snapshot> snap;
    {
      Span acquire(kShardSnapshot);
      snap.emplace(f_);
    }
    Span q(kShardQuery);
    return fn(*snap);
  }

  // One row per thread id, so counting never contends.
  void count_update(Key k) {
    ++rows_[static_cast<std::size_t>(cbat::ThreadRegistry::thread_id())]
          .value[static_cast<std::size_t>(f_.shard_of(k))];
  }

  Forest f_;
  std::vector<cbat::Padded<std::array<std::uint64_t, kShards>>> rows_;
};

}  // namespace perfbench
