// Latency histogram and process probes for the repository benchmark.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

namespace perfbench {

// Log-linear histogram of nanosecond values: exact below 1024 ns, then 256
// buckets per power of two (relative width <= 0.4%).  Percentiles
// interpolate inside the bucket, so they are not quantized to bucket edges.
class Histogram {
 public:
  static constexpr int kLinear = 1024;
  static constexpr int kSubBits = 8;  // 256 buckets per octave
  static constexpr int kOctaves = 30;
  static constexpr int kBuckets = kLinear + kOctaves * (1 << kSubBits);

  Histogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++n_;
    sum_ += ns;
  }

  void merge(const Histogram& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const { return n_; }
  double mean() const {
    return n_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(n_);
  }

  // Value at quantile q in [0, 1], in ns; 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_);
    double cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (cum + c >= target) {
        const double frac = (target - cum) / c;
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      cum += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static int index(std::uint64_t v) {
    if (v < kLinear) return static_cast<int>(v);
    const int msb = 63 - std::countl_zero(v);  // >= 10
    const int shift = msb - kSubBits;
    int octave = msb - 10;
    if (octave >= kOctaves) return kBuckets - 1;
    const int top = static_cast<int>(v >> shift) - (1 << kSubBits);
    return kLinear + octave * (1 << kSubBits) + top;
  }
  static std::uint64_t lower(int i) {
    if (i < kLinear) return static_cast<std::uint64_t>(i);
    const int octave = (i - kLinear) >> kSubBits;
    const int top = ((i - kLinear) & ((1 << kSubBits) - 1)) + (1 << kSubBits);
    return static_cast<std::uint64_t>(top) << (octave + 10 - kSubBits);
  }
  static std::uint64_t width(int i) {
    if (i < kLinear) return 1;
    const int octave = (i - kLinear) >> kSubBits;
    return std::uint64_t{1} << (octave + 10 - kSubBits);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
};

// A field of /proc/self/status in MiB (VmHWM, VmRSS); 0 if unreadable.
inline double proc_status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      long kb = 0;
      if (std::sscanf(line + len + 1, "%ld", &kb) == 1) mb = kb / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

}  // namespace perfbench
