// Pooled fixed-size block allocation for the task lifecycle hot path.
//
// Every spawn used to heap-allocate a TaskNode (and sometimes a closure
// block) and every retire freed it — two trips through the global allocator
// per task, which at the paper's target granularity is a measurable slice of
// the per-task overhead floor (QuickSched drives the same overhead to tens
// of nanoseconds with pooled task storage). This pool replaces malloc/free
// in steady state with:
//
//   * per-owner free lists — one cache-line-padded slot per submitting
//     thread (the main thread and each worker), popped/pushed with plain
//     loads and stores, no atomics, because only the owning thread touches
//     its local list;
//   * a remote-free MPSC stack per slot — a block is returned by whichever
//     worker retires the task, which is usually not the thread that
//     allocated it; the retiring thread CAS-pushes the block onto its
//     *owner's* remote stack and the owner reclaims the whole stack with a
//     single exchange on its next allocation (push-only CAS + whole-list
//     takeover by one consumer: no ABA window);
//   * slabs — blocks are carved in batches from cache-line-aligned slab
//     allocations, kept on a global spin-locked overflow list; a slot
//     refills from it in batches, so the global lock is amortized over
//     `cache_blocks` allocations;
//   * a per-block generation counter — bumped every time a block is handed
//     out, so an allocator can tell a block's first tenancy from a reuse
//     (data versions construct their persistent reference cell only once;
//     see dep/version.cpp).
//
// Total footprint is bounded by the peak number of live blocks (the task
// window bounds live tasks), plus one partially-used slab per pool: blocks
// are never returned to the OS until the pool is destroyed, which is exactly
// the reuse the hot path wants.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned_alloc.hpp"
#include "common/cache.hpp"
#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/prefetch.hpp"
#include "common/spin.hpp"

namespace smpss {

struct PoolStats {
  std::uint64_t hits = 0;     ///< allocations served from a local/remote list
  std::uint64_t refills = 0;  ///< trips to the global overflow list
  std::uint64_t slabs = 0;    ///< slab allocations (the only real mallocs)
};

class SlabPool {
 public:
  /// A pool of `payload_bytes`/`payload_align` blocks with `owner_slots`
  /// single-owner free lists (slot i is only ever allocated from by one
  /// thread at a time) plus one internal lock-guarded slot for foreign
  /// threads. `cache_blocks` is the refill batch size per slot.
  SlabPool(std::size_t payload_bytes, std::size_t payload_align,
           unsigned owner_slots, unsigned cache_blocks)
      : payload_offset_(align_up(sizeof(Header), payload_align)),
        stride_(align_up(payload_offset_ + payload_bytes, kCacheLineSize)),
        owner_slots_(owner_slots),
        cache_blocks_(cache_blocks < 1 ? 1 : cache_blocks),
        blocks_per_slab_(cache_blocks_ < 16 ? 16 : cache_blocks_),
        slots_(std::make_unique<Slot[]>(owner_slots + 1)) {
    SMPSS_CHECK(payload_align <= kCacheLineSize &&
                    (payload_align & (payload_align - 1)) == 0,
                "slab pool payload alignment must be a power of two <= a "
                "cache line");
    SMPSS_CHECK(owner_slots >= 1, "slab pool needs at least one owner slot");
  }

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// Frees the slabs. The caller must guarantee no block is still live —
  /// for the runtime this holds once all tasks have retired (barrier/drain)
  /// and the dependency tables have been flushed.
  ~SlabPool() {
    for (void* s : slabs_) aligned_free_bytes(s);
  }

  /// Allocate one block. `slot` identifies the caller's free list; a value
  /// >= the owner-slot count routes to the internal foreign slot, which is
  /// lock-guarded (foreign submitters are rare and may be concurrent).
  void* allocate(unsigned slot) {
    const bool foreign = slot >= owner_slots_;
    const unsigned idx = foreign ? owner_slots_ : slot;
    if (foreign) foreign_mu_.lock();
    Header* h = take_block(slots_[idx]);
    if (foreign) foreign_mu_.unlock();
    h->owner = idx;
    ++h->generation;
    return payload_of(h);
  }

  /// Return a block from any thread: CAS-push onto the owning slot's remote
  /// stack. The owner reclaims the whole stack on its next allocation.
  void deallocate(void* payload) noexcept {
    Header* h = header_of(payload);
    std::atomic<Header*>& top = slots_[h->owner].remote;
    Header* old = top.load(std::memory_order_relaxed);
    do {
      h->next.store(old, std::memory_order_relaxed);
    } while (!top.compare_exchange_weak(old, h, std::memory_order_release,
                                        std::memory_order_relaxed));
  }

  /// Generation of the block's current tenancy (bumped at every allocate).
  std::uint32_t generation_of(const void* payload) const noexcept {
    return header_of(payload)->generation;
  }

  PoolStats stats() const noexcept {
    PoolStats s;
    for (unsigned i = 0; i <= owner_slots_; ++i) {
      s.hits += slots_[i].hits.get();
      s.refills += slots_[i].refills.get();
    }
    s.slabs = slab_count_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Lives at the front of every block. `next` links the block through
  /// whichever free list currently holds it (local lists use relaxed
  /// accesses — single owner; the remote stack synchronizes through the CAS
  /// on its top pointer). `owner`/`generation` are plain fields written only
  /// by the thread that privately holds the block at that moment.
  struct Header {
    std::atomic<Header*> next{nullptr};
    std::uint32_t owner = 0;
    std::uint32_t generation = 0;
  };

  struct alignas(kCacheLineSize) Slot {
    Header* local = nullptr;  // owner-only LIFO
    Counter64 hits;
    Counter64 refills;
    alignas(kCacheLineSize) std::atomic<Header*> remote{nullptr};
  };

  Header* header_of(const void* payload) const noexcept {
    return reinterpret_cast<Header*>(
        reinterpret_cast<std::uintptr_t>(payload) - payload_offset_);
  }
  void* payload_of(Header* h) const noexcept {
    return reinterpret_cast<char*>(h) + payload_offset_;
  }

  Header* take_block(Slot& sl) {
    Header* h = sl.local;
    if (h == nullptr) {
      // Local list dry: reclaim everything retire threads pushed back to us.
      h = sl.remote.exchange(nullptr, std::memory_order_acquire);
    }
    if (h != nullptr) {
      sl.local = h->next.load(std::memory_order_relaxed);
      // The next free block was most likely freed by a retiring worker, so
      // its lines sit modified in that worker's cache, and the next
      // allocation writes them: a TaskNode's constructor fills all ten, and
      // the first locked instruction after it (the submission's sequence
      // fetch_add; a version's publication CAS) waits for every store still
      // missing. Ask for each line in exclusive state now.
      if (sl.local != nullptr) prefetch_for_write(sl.local, stride_);
      ++sl.hits;
      return h;
    }
    refill(sl);
    h = sl.local;
    sl.local = h->next.load(std::memory_order_relaxed);
    ++sl.refills;
    return h;
  }

  /// Move up to `cache_blocks_` blocks from the global overflow list into
  /// the slot, carving a fresh slab first if the list is empty.
  void refill(Slot& sl) {
    g_mu_.lock();
    if (g_free_ == nullptr) carve_slab_locked();
    Header* head = g_free_;
    Header* tail = head;
    for (unsigned n = 1;
         n < cache_blocks_ &&
         tail->next.load(std::memory_order_relaxed) != nullptr;
         ++n)
      tail = tail->next.load(std::memory_order_relaxed);
    g_free_ = tail->next.load(std::memory_order_relaxed);
    g_mu_.unlock();
    tail->next.store(nullptr, std::memory_order_relaxed);
    sl.local = head;
  }

  void carve_slab_locked() {
    void* mem = aligned_alloc_bytes(stride_ * blocks_per_slab_,
                                    kCacheLineSize);
    SMPSS_CHECK(mem != nullptr, "slab pool out of memory");
    slabs_.push_back(mem);
    slab_count_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < blocks_per_slab_; ++i) {
      auto* h = ::new (static_cast<char*>(mem) + i * stride_) Header{};
      h->next.store(g_free_, std::memory_order_relaxed);
      g_free_ = h;
    }
  }

  const std::size_t payload_offset_;
  const std::size_t stride_;
  const unsigned owner_slots_;
  const unsigned cache_blocks_;
  const std::size_t blocks_per_slab_;
  std::unique_ptr<Slot[]> slots_;  // [owner_slots_] is the foreign slot

  SpinLock foreign_mu_;  ///< serializes foreign-slot allocations

  alignas(kCacheLineSize) SpinLock g_mu_;
  Header* g_free_ = nullptr;        // guarded by g_mu_
  std::vector<void*> slabs_;        // guarded by g_mu_
  std::atomic<std::uint64_t> slab_count_{0};
};

/// The size classes the task lifecycle allocates from: one pool of
/// TaskNode-sized blocks, one of small closure blocks (closures that fit
/// neither the node's inline buffer nor this class fall back to operator
/// new, exactly as before pooling), and one of successor-edge links (the
/// lock-free successor stacks on TaskNode are built from these — see
/// graph/task.hpp). Owned by the Runtime; every TaskNode carries a pointer
/// back here so retire can recycle from any thread.
class TaskArena {
 public:
  /// Closure blocks: large enough for a capture-heavy lambda plus a
  /// several-parameter tuple; anything bigger is rare enough to heap.
  static constexpr std::size_t kClosureBlockBytes = 256;

  /// Successor-link blocks: two pointers (SuccLink in graph/task.hpp).
  static constexpr std::size_t kEdgeBlockBytes = 2 * sizeof(void*);

  TaskArena(std::size_t node_bytes, std::size_t node_align,
            unsigned owner_slots, unsigned cache_blocks)
      : nodes(node_bytes, node_align, owner_slots, cache_blocks),
        closures(kClosureBlockBytes, alignof(std::max_align_t), owner_slots,
                 cache_blocks),
        edges(kEdgeBlockBytes, alignof(void*), owner_slots, cache_blocks) {}

  SlabPool nodes;
  SlabPool closures;
  SlabPool edges;
};

}  // namespace smpss
