// Software prefetch hints.
//
// A prefetch never faults and never changes what a later load returns, so
// it may name a stale, reclaimed or null address: the worst case is a
// wasted memory request.  Callers use it to start independent cache misses
// together instead of paying them one after another.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cbat {

// Hardware cache-line size (util/padded.h's kCacheLine is the padding
// stride, which also covers the adjacent-line prefetcher).
inline constexpr std::size_t kPrefetchLine = 64;

// Prefetches every cache line overlapping [p, p + bytes), for writing when
// kForWrite (the line arrives exclusive, so the first store does not miss).
template <bool kForWrite = false>
inline void prefetch_span(const void* p, std::size_t bytes) {
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t a = begin & ~(kPrefetchLine - 1); a < begin + bytes;
       a += kPrefetchLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(a), kForWrite ? 1 : 0, 3);
  }
}

}  // namespace cbat
