// Unbounded MPMC FIFO used for the two global ready lists of paper Sec. III
// (the high-priority list and the "main" list), the OpenMP-3-like task pool
// and the scheduling simulator.
//
// The main list is on the spawn path: the main thread moves every
// dependency-free task into it while the workers poll it for work. A spin
// lock shared by that one pusher and every poller, plus a size counter both
// sides wrote, cost stencil_fine's submitter 28% of its samples once the
// node pool stopped stalling it (docs/BENCHMARKS.md). So a push takes no
// lock and keeps no count:
//
//   * producers publish with one exchange on `tail_` and one store to the
//     predecessor's link (Vyukov's intrusive MPSC list);
//   * consumers take a lock among themselves, or with try_pop_front give up
//     when it is taken, and walk `front_` down the links. The list keeps one
//     node linked at all times: the oldest unreturned task, or the stub (a
//     bare link, since T need not be default-constructible) once the list is
//     drained. A consumer takes the last task only by putting the stub back
//     at the tail with one CAS, which fails while a push is in flight behind
//     that task; the task then stays until the push links it.
//
// A push between its exchange and its link hides its tasks, and the task
// linked before them, until the link lands, so "empty" is only ever an
// estimate, as it was with the counter. The runtime's producers notify the
// idle gate after the push returns, so a worker that found the list empty
// re-polls. Tasks are linked through their `queue_next` field, so enqueueing
// never allocates; every access to a link that may race goes through
// atomic_ref.
#pragma once

#include <atomic>
#include <cstddef>

#include "common/cache.hpp"
#include "common/spin.hpp"

namespace smpss {

/// T must expose `T* queue_next` (only ever touched while inside a queue).
template <typename T>
class IntrusiveMpmcFifo {
 public:
  IntrusiveMpmcFifo() = default;
  IntrusiveMpmcFifo(const IntrusiveMpmcFifo&) = delete;
  IntrusiveMpmcFifo& operator=(const IntrusiveMpmcFifo&) = delete;

  void push_back(T* item) noexcept { link(publish(item), item); }

  /// Append `n` items in order with one exchange (batched release).
  void push_back_batch(T* const* items, std::size_t n) noexcept {
    if (n == 0) return;
    for (std::size_t i = 0; i + 1 < n; ++i) items[i]->queue_next = items[i + 1];
    link(publish(items[n - 1]), items[0]);
  }

  /// Pop the oldest item, waiting for other consumers (not for producers).
  T* pop_front() noexcept {
    if (empty_estimate()) return nullptr;
    consumer_mu_.lock();
    T* item = pop_front_locked();
    consumer_mu_.unlock();
    return item;
  }

  /// Non-blocking pop: gives up immediately when another consumer holds the
  /// lock. Lets a crowd of work-seeking consumers fall through to stealing
  /// instead of convoying here.
  T* try_pop_front() noexcept {
    if (empty_estimate()) return nullptr;
    if (!consumer_mu_.try_lock()) return nullptr;
    T* item = pop_front_locked();
    consumer_mu_.unlock();
    return item;
  }

  /// Racy: true when no linked item was seen.
  bool empty_estimate() const noexcept {
    return front_.load(std::memory_order_relaxed) == nullptr &&
           load_link(stub_, std::memory_order_relaxed) == nullptr;
  }

 private:
  friend struct MpmcFifoTestPeer;

  static T* load_link(T* const& link, std::memory_order mo) noexcept {
    return std::atomic_ref<T*>(const_cast<T*&>(link)).load(mo);
  }
  static void store_link(T*& link, T* v, std::memory_order mo) noexcept {
    std::atomic_ref<T*>(link).store(v, mo);
  }

  /// First half of a push: make `last` the tail and return the link that
  /// must point at the pushed chain (the previous tail's, or the stub's).
  T** publish(T* last) noexcept {
    last->queue_next = nullptr;
    return tail_.exchange(&last->queue_next, std::memory_order_acq_rel);
  }

  /// Second half: until this store, consumers stop at the previous tail.
  static void link(T** prev, T* first) noexcept {
    store_link(*prev, first, std::memory_order_release);
  }

  T* pop_front_locked() noexcept {
    T* item = front_.load(std::memory_order_relaxed);
    if (item == nullptr) {  // the stub is at the front
      item = load_link(stub_, std::memory_order_acquire);
      if (item == nullptr) return nullptr;
      front_.store(item, std::memory_order_relaxed);
    }
    T* next = load_link(item->queue_next, std::memory_order_acquire);
    if (next == nullptr) {
      // `item` is the newest linked node. Put the stub behind it unless a
      // push has already taken the tail from it, whose link is then due.
      store_link(stub_, nullptr, std::memory_order_relaxed);
      T** expected = &item->queue_next;
      if (!tail_.compare_exchange_strong(expected, &stub_,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        next = load_link(item->queue_next, std::memory_order_acquire);
        if (next == nullptr) return nullptr;
      }
    }
    front_.store(next, std::memory_order_relaxed);
    item->queue_next = nullptr;
    return item;
  }

  // Producer line: pushes write the tail, and the stub's link when the list
  // was drained, so such a push misses on one line, not two.
  alignas(kCacheLineSize) std::atomic<T**> tail_{&stub_};
  T* stub_ = nullptr;
  // Consumer line.
  alignas(kCacheLineSize) SpinLock consumer_mu_;
  std::atomic<T*> front_{nullptr};  ///< oldest linked item; nullptr = stub
};

}  // namespace smpss
