#ifndef CHURNLAB_COMMON_PREFETCH_H_
#define CHURNLAB_COMMON_PREFETCH_H_

#include <cstddef>
#include <cstdint>

namespace churnlab {

inline constexpr size_t kCacheLineBytes = 64;

/// Hints every cache line covering [data, data + bytes) toward the cache for
/// a read. A hint only: it changes no state and never faults, whatever the
/// address, so callers may pass a pointer they have not validated yet.
inline void PrefetchRange(const void* data, size_t bytes) {
  if (bytes == 0) return;
  const uintptr_t first = reinterpret_cast<uintptr_t>(data) &
                          ~uintptr_t{kCacheLineBytes - 1};
  const uintptr_t last = reinterpret_cast<uintptr_t>(data) + bytes - 1;
  for (uintptr_t line = first; line <= last; line += kCacheLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

}  // namespace churnlab

#endif  // CHURNLAB_COMMON_PREFETCH_H_
