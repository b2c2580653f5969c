// RenamePool: allocator + accountant for renamed data storage.
//
// Renamed buffers are cache-line aligned (the paper credits part of the
// 1-thread N-Queens speedup to "realigning data due to renamings") and their
// total footprint is tracked: exceeding the configured limit is one of the
// main thread's blocking conditions (Sec. III).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/aligned_alloc.hpp"
#include "common/cache.hpp"
#include "common/check.hpp"

namespace smpss {

class RenamePool {
 public:
  explicit RenamePool(std::size_t soft_limit_bytes) noexcept
      : soft_limit_(soft_limit_bytes) {}

  /// Allocate an aligned renamed buffer. Never fails softly: exceeding the
  /// soft limit is handled by the runtime *before* calling (blocking the
  /// main thread), not here.
  void* allocate(std::size_t bytes) {
    void* p = aligned_alloc_bytes(bytes, kDataAlignment);
    SMPSS_CHECK(p != nullptr, "out of memory for renamed storage");
    accountant_.add(bytes);
    renames_.fetch_add(1, std::memory_order_relaxed);
    return p;
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    aligned_free_bytes(p);
    accountant_.sub(bytes);
  }

  /// True while renamed storage exceeds the configured soft limit.
  bool over_limit() const noexcept {
    return accountant_.current() > soft_limit_;
  }

  std::size_t current_bytes() const noexcept { return accountant_.current(); }
  std::size_t peak_bytes() const noexcept { return accountant_.peak(); }
  std::size_t total_bytes() const noexcept { return accountant_.total(); }
  std::uint64_t rename_count() const noexcept {
    return renames_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t soft_limit_;
  MemoryAccountant accountant_;
  std::atomic<std::uint64_t> renames_{0};
};

}  // namespace smpss
