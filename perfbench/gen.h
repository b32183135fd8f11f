// Seeded operation generator for the repository benchmark.
//
// Owns its PRNG and its Zipf sampler so the benchmark's inputs depend on
// nothing but the workload name and the seed.  Each worker draws from its
// own stream (seed, stream id); every structure measured in a run replays
// the same per-worker streams.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Key = std::int64_t;

// splitmix64 (Steele et al.), used to expand a seed into PRNG state.
inline std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** (Blackman and Vigna).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t x = seed * 0x2545f4914f6cdd1dULL + stream;
    for (auto& w : s_) w = splitmix64(x);
  }
  std::uint64_t next() {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  // Uniform in [0, n) by multiply-shift (Lemire); bias < n / 2^64.
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_{};
};

// Zipf over ranks {0..n-1} (rank 0 most popular) by inverse CDF: one
// binary search over a precomputed table, exact for any theta.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    cdf_.back() = 1.0;
  }
  std::uint64_t sample(Rng& rng) const {
    const double u = rng.unit();
    return static_cast<std::uint64_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

enum class OpKind : std::uint8_t {
  kInsert,
  kErase,
  kFind,
  kRank,
  kSelect,
  kRangeCount,
  kRangeAggregate,
};
inline constexpr int kNumOpKinds = 7;

enum class OpClass : std::uint8_t { kUpdate, kFind, kQuery };
inline constexpr int kNumOpClasses = 3;

inline OpClass class_of(OpKind k) {
  switch (k) {
    case OpKind::kInsert:
    case OpKind::kErase:
      return OpClass::kUpdate;
    case OpKind::kFind:
      return OpClass::kFind;
    default:
      return OpClass::kQuery;
  }
}

// One operation: `a` is the key (insert/erase/find/rank), the 1-based index
// (select) or the low bound (ranges); `b` is the inclusive high bound.
struct Op {
  OpKind kind;
  Key a;
  Key b;
};

// A workload: the percentage of each op class, the weights of the query
// kinds, and the key distribution.  Every workload contains every op class,
// so every end-to-end metric exists on every workload.
struct Workload {
  std::string name;
  int insert_pct, erase_pct, find_pct, query_pct;
  // Query kinds, in OpKind order from kRank; relative weights.
  std::array<int, 4> query_weights;
  Key keyspace;         // keys of updates, finds and rank are in [0, keyspace)
  double zipf_theta;    // 0 = uniform keys
  Key range_width;      // width of range_count / range_aggregate windows
  int fixed_windows;    // > 0: ranges come from this many fixed windows
  Key prefill;          // keys inserted before measuring (a seeded half)
};

inline std::vector<Workload> all_workloads() {
  constexpr Key k20 = Key{1} << 20;
  constexpr Key k16 = Key{1} << 16;
  return {
      // Update path: Propagate, chromatic rebalancing, LLX/SCX, reclamation.
      {"update_uniform", 45, 45, 5, 5, {1, 0, 0, 0}, k20, 0.0, 1000, 0, k20 / 2},
      // Composite reads beside updates; bounds never repeat.
      {"query_mixed", 10, 10, 40, 40, {1, 1, 1, 0}, k20, 0.0, 1000, 0, k20 / 2},
      // Skewed updates; repeated hot-range aggregates over 8 fixed windows.
      {"hot_range_zipf", 5, 5, 10, 80, {0, 0, 0, 1}, k16, 0.99, 4096, 8,
       k16 / 2},
  };
}

inline const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> all = all_workloads();
  for (const auto& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// Stream ids: workers use their index; these are reserved.
inline constexpr std::uint64_t kPrefillStream = 1000;
inline constexpr std::uint64_t kWindowStream = 1001;
inline constexpr std::uint64_t kSampleStream = 1002;
inline constexpr std::uint64_t kKernelStream = 1003;

// The per-run shared inputs: the fixed windows and the Zipf table.
struct WorkloadInputs {
  const Workload* w;
  std::vector<Key> windows;  // low bounds of the fixed windows
  std::optional<Zipf> zipf;  // none for uniform keys
  Key select_max;            // select indices are drawn from [1, select_max]

  WorkloadInputs(const Workload& wl, std::uint64_t seed) : w(&wl) {
    Rng rng(seed, kWindowStream);
    // Windows are spread one per equal slice of the keyspace, at a seeded
    // offset inside the slice, so every seed sees the same coverage.
    if (wl.fixed_windows > 0) {
      const Key slice = wl.keyspace / wl.fixed_windows;
      for (int i = 0; i < wl.fixed_windows; ++i) {
        const Key room = std::max<Key>(1, slice - wl.range_width + 1);
        windows.push_back(i * slice + static_cast<Key>(rng.below(room)));
      }
    }
    if (wl.zipf_theta > 0) {
      zipf.emplace(static_cast<std::uint64_t>(wl.keyspace), wl.zipf_theta);
    }
    // Updates keep the size near the prefill (equal insert and erase
    // rates), so indices up to 3/4 of it always name a present key.
    select_max = std::max<Key>(1, wl.prefill * 3 / 4);
  }
};

class Generator {
 public:
  Generator(const WorkloadInputs& in, std::uint64_t seed, std::uint64_t stream)
      : in_(&in), rng_(seed, stream) {
    const Workload& w = *in.w;
    cut_[0] = w.insert_pct;
    cut_[1] = cut_[0] + w.erase_pct;
    cut_[2] = cut_[1] + w.find_pct;
    qsum_ = 0;
    for (int i = 0; i < 4; ++i) {
      qsum_ += w.query_weights[i];
      qcut_[i] = qsum_;
    }
  }

  Op next() {
    const Workload& w = *in_->w;
    const int r = static_cast<int>(rng_.below(100));
    if (r < cut_[0]) return {OpKind::kInsert, key(), 0};
    if (r < cut_[1]) return {OpKind::kErase, key(), 0};
    if (r < cut_[2]) return {OpKind::kFind, key(), 0};
    const int q = static_cast<int>(rng_.below(static_cast<std::uint64_t>(qsum_)));
    int qi = 0;
    while (q >= qcut_[qi]) ++qi;
    const auto kind = static_cast<OpKind>(static_cast<int>(OpKind::kRank) + qi);
    switch (kind) {
      case OpKind::kRank:
        return {kind, key(), 0};
      case OpKind::kSelect:
        return {kind,
                1 + static_cast<Key>(rng_.below(
                        static_cast<std::uint64_t>(in_->select_max))),
                0};
      default: {
        Key lo;
        if (!in_->windows.empty()) {
          lo = in_->windows[rng_.below(in_->windows.size())];
        } else {
          lo = static_cast<Key>(rng_.below(
              static_cast<std::uint64_t>(w.keyspace - w.range_width + 1)));
        }
        return {kind, lo, lo + w.range_width - 1};
      }
    }
  }

 private:
  Key key() {
    if (in_->zipf) return static_cast<Key>(in_->zipf->sample(rng_));
    return static_cast<Key>(
        rng_.below(static_cast<std::uint64_t>(in_->w->keyspace)));
  }

  const WorkloadInputs* in_;
  Rng rng_;
  int cut_[3];
  int qcut_[4];
  int qsum_;
};

// The prefill set: a seeded uniform half of the keyspace, in insertion
// order (shuffled, so the trees are built from random-order inserts).
inline std::vector<Key> prefill_keys(const Workload& w, std::uint64_t seed) {
  std::vector<Key> all(static_cast<std::size_t>(w.keyspace));
  for (Key k = 0; k < w.keyspace; ++k) all[static_cast<std::size_t>(k)] = k;
  Rng rng(seed, kPrefillStream);
  for (std::size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.below(i + 1)]);
  }
  all.resize(static_cast<std::size_t>(w.prefill));
  return all;
}

}  // namespace perfbench
