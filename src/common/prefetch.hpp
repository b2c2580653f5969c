// Write prefetch: ask for cache lines in exclusive state before a store or
// a read-modify-write needs them.
//
// A line another core wrote last sits modified in that core's cache. The
// first store to it here waits for the transfer, and the first locked
// instruction after the store waits for every store still missing. Asking
// for the line early overlaps the transfer with the work in between. x86
// needs PREFETCHW for that: __builtin_prefetch(p, 1) is a read prefetch
// unless the build enables PRFCHW, so the instruction is issued by hand
// when CPUID reports it. A prefetch never faults, so it may name memory
// whose contents are stale, as long as the memory stays mapped.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cache.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace smpss {

namespace detail {
inline bool cpu_has_prefetchw() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  return __get_cpuid(0x80000001u, &a, &b, &c, &d) != 0 &&
         (c & bit_PRFCHW) != 0;
#else
  return false;
#endif
}

/// Read once per process. A use before its initialization reads false and
/// falls back to the read prefetch, which is a hint as well.
inline const bool g_has_prefetchw = cpu_has_prefetchw();
}  // namespace detail

/// Prefetch for writing every cache line that [p, p + bytes) touches.
inline void prefetch_for_write(const void* p, std::size_t bytes) noexcept {
  const auto start = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = start & ~(kCacheLineSize - 1);
  const std::uintptr_t end = start + bytes;
#if defined(__x86_64__) || defined(__i386__)
  if (detail::g_has_prefetchw) {
    for (std::uintptr_t l = first; l < end; l += kCacheLineSize)
      asm volatile("prefetchw %0" : : "m"(*reinterpret_cast<const char*>(l)));
    return;
  }
#endif
  for (std::uintptr_t l = first; l < end; l += kCacheLineSize)
    __builtin_prefetch(reinterpret_cast<const char*>(l), /*rw=*/1);
}

}  // namespace smpss
