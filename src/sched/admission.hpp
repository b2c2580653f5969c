// Weighted deficit-round-robin admission control for service-mode streams.
//
// The foreign-thread gate (Runtime::submit) is a single shared blocking
// condition: when the task window fills, every gated submitter sleeps on one
// IdleGate and whoever wakes first wins the freed slot. One greedy client
// can therefore re-take every slot and starve a trickle client indefinitely.
// This module replaces that free-for-all for streams with an explicit
// admission queue: each stream owns a persistent AdmissionTicket, waiting
// tickets form a round-robin ring, and the head ticket may take up to
// `weight` slots (its deficit) before the turn rotates. A stream blocked on
// its *own* limit (the per-stream window) forfeits its turn
// instead of holding the head, so stream-local backpressure never convoys
// the other tenants.
//
// Liveness is timeout-backed like every gate in this runtime: waiters
// re-poll on a bounded wait_for, so a missed notify costs one re-poll,
// never a hang. The fast path (no waiters, capacity available — checked by
// the caller) bypasses the queue entirely; `has_waiters()` is one relaxed
// load, so the retire path pays nothing while the service is unsaturated.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/check.hpp"

namespace smpss {

/// What a probe (slot-acquisition attempt) under the admission lock found.
enum class AdmitProbe : std::uint8_t {
  Taken,       ///< slot acquired — admission granted
  GlobalFull,  ///< shared capacity exhausted: hold the turn, wait for retire
  SelfFull,    ///< stream-local limit hit: forfeit the turn, let others run
};

/// One stream's standing in the admission ring. Embedded in StreamState and
/// persistent across admissions (the deficit must survive between calls for
/// weighted rotation to mean anything). All fields are guarded by the
/// AdmissionControl mutex.
struct AdmissionTicket {
  std::uint32_t weight = 1;   ///< slots granted per turn at the head
  std::int64_t deficit = 0;   ///< grants left this turn
  std::uint32_t waiting = 0;  ///< threads currently blocked in admit()
  bool queued = false;        ///< ticket is in the ring
};

class AdmissionControl {
 public:
  /// Block until it is `t`'s turn and `probe` reports Taken. `probe` runs
  /// under the admission mutex and must be cheap (a few atomic loads plus
  /// the slot take). Re-entrant per stream: any number of client threads may
  /// wait on one ticket; they share its turn.
  template <typename Probe>
  void admit(AdmissionTicket& t, Probe&& probe) {
    std::unique_lock<std::mutex> lk(mu_);
    enqueue(t);
    ++t.waiting;
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      skip_idle_heads();
      if (head() == &t) {
        const AdmitProbe p = probe();
        if (p == AdmitProbe::Taken) {
          if (--t.deficit <= 0) rotate();
          break;
        }
        if (p == AdmitProbe::SelfFull) {
          // Forfeit: this stream's own window is the blocker; the
          // remaining global capacity belongs to the next tenant in line.
          // Wake the new head, then fall through to the bounded wait (a
          // lone stream would otherwise spin here under the mutex).
          rotate();
          cv_.notify_all();
        }
      }
      // GlobalFull (or not our turn): wait for a retire-side notify; the
      // bounded timeout makes a lost wakeup cost one re-poll.
      cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    --t.waiting;
  }

  /// Retire side: a slot may have freed. One relaxed load when idle.
  bool has_waiters() const noexcept {
    return waiters_.load(std::memory_order_relaxed) > 0;
  }
  void notify() noexcept { cv_.notify_all(); }

  /// Threads currently blocked in admit(). Test/monitoring only.
  std::uint32_t waiters() const noexcept {
    return waiters_.load(std::memory_order_relaxed);
  }

  /// Drop a closed stream's ticket from the ring. No thread may be waiting
  /// on it (close() drains its own submitters first).
  void remove(AdmissionTicket& t) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!t.queued) return;
    SMPSS_CHECK(t.waiting == 0,
                "removing an admission ticket with waiters still blocked");
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      if (ring_[i] != &t) continue;
      ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(i));
      if (head_ > i) --head_;
      if (head_ >= ring_.size()) head_ = 0;
      break;
    }
    t.queued = false;
  }

 private:
  AdmissionTicket* head() const noexcept {
    return ring_.empty() ? nullptr : ring_[head_];
  }

  void enqueue(AdmissionTicket& t) {
    if (t.queued) return;
    t.queued = true;
    t.deficit = t.weight;
    ring_.push_back(&t);
  }

  /// Advance the turn; the new head starts a fresh turn with a full deficit.
  void rotate() noexcept {
    if (ring_.empty()) return;
    head_ = (head_ + 1) % ring_.size();
    ring_[head_]->deficit = static_cast<std::int64_t>(ring_[head_]->weight);
  }

  /// Tickets stay in the ring between admissions (their deficit is their
  /// standing), so the head may have no waiting thread; pass the turn along
  /// until it lands on someone who wants it.
  void skip_idle_heads() noexcept {
    for (std::size_t n = 0; n < ring_.size(); ++n) {
      AdmissionTicket* h = head();
      if (h == nullptr || h->waiting > 0) return;
      rotate();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<AdmissionTicket*> ring_;  // round-robin order
  std::size_t head_ = 0;
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace smpss
