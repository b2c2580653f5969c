// Service mode: persistent multi-stream submission on top of the batch
// engine.
//
// The paper's runtime is a run-to-barrier batch engine: one generator
// thread, one global task window, one barrier. A long-lived service has N
// client threads submitting indefinitely — so the blocking conditions of
// Sec. III become *per-tenant* admission control and the global barrier is
// replaced by per-task futures and per-stream drains:
//
//     smpss::Runtime rt(cfg);                  // cfg.nested_tasks = true
//     auto t = rt.register_task_type("work");  // before clients start
//     smpss::StreamHandle s = rt.open_stream({.name = "tenant-a",
//                                             .weight = 2});
//     auto fut = s.submit(t, body, smpss::inout(&cell));
//     fut.then([] { /* runs on the retiring worker */ });
//     fut.wait();
//     s.drain();   // all tasks admitted through s retired
//     s.close();   // drain + no further submissions
//
// Stream lifecycle: Open -> Draining -> Closed (one-way). StreamStates live
// in an append-only registry owned by the Runtime and are never freed or
// reused mid-run: versions carry the stream's SubmitterAccount past the
// stream's close (a renamed buffer dies with its last reader), so the
// pointed-to state must outlive everything — it does, by construction.
//
// Service mode requires Config::nested_tasks (concurrent submitters) and a
// registered task type per body shape, both set up on the main thread
// before the first client submits.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "dep/renaming.hpp"
#include "graph/task.hpp"
#include "runtime/params.hpp"
#include "sched/admission.hpp"
#include "trace/latency_histogram.hpp"

namespace smpss {

class Runtime;

/// open_stream() parameters. Defaults: equal weight, no stream-local window
/// or rename budget (the global Sec. III blocking conditions still apply).
struct StreamOptions {
  std::string name;                    ///< stats/exporter label ("" = "stream-<id>")
  std::uint32_t weight = 1;            ///< admission slots per round-robin turn
  std::size_t task_window = 0;         ///< per-stream live-task cap (0 = none)
  std::size_t rename_budget_bytes = 0; ///< per-stream renamed-storage cap (0 = none)
};

/// One stream's runtime state. Registry-pinned: allocated by open_stream(),
/// owned by the Runtime, never freed before the Runtime itself.
struct StreamState {
  enum class Phase : std::uint8_t { Open = 0, Draining = 1, Closed = 2 };

  // immutable after open_stream()
  std::uint32_t id = 0;
  std::string name;
  std::size_t window = 0;  ///< per-stream live-task cap (0 = none)

  std::atomic<Phase> phase{Phase::Open};

  // accounting (submit side bumps submitted/live; retire side retired/live)
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> retired{0};
  std::atomic<std::int64_t> live{0};
  /// Admissions that had to queue (the stream hit a window/budget/fairness
  /// wall) — the per-stream split of the old global foreign_throttled.
  std::atomic<std::uint64_t> throttled{0};
  std::atomic<std::uint64_t> callbacks_run{0};

  /// Rename-storage charge/budget + analyzer traffic, threaded through both
  /// analyzers via TaskNode::account.
  SubmitterAccount account;

  /// Submit-to-retire latency (ns). Recorded on every stream-task retire.
  LatencyHistogram latency;

  /// Standing in the weighted round-robin admission ring.
  AdmissionTicket ticket;
};

/// Shared completion state of one task: one ref held by the task (dropped
/// after fulfill), one by the TaskFuture handle. The callback runs exactly
/// once — on the retiring worker when installed before completion, inline
/// in then() when installed after.
class FutureState {
 public:
  explicit FutureState(Runtime* rt) : rt_(rt) {}

  void add_ref() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }
  void release() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  bool ready() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

  /// Block until the task retired (and its callback, if any, ran). A thread
  /// that owns a ready-list slot of the runtime (the main thread) executes
  /// ready tasks while waiting; any other thread sleeps on the runtime's
  /// gate. Must not be called from inside one of the owning runtime's own
  /// task bodies (it would wait on itself).
  void wait();

  /// Install the completion callback. At most one per future; runs on the
  /// retiring worker (keep it short — it delays that worker's next acquire),
  /// or inline here when the task already completed.
  void then(std::function<void()> cb);

  /// Retire side (Runtime::retire_service): publish completion, run the
  /// armed callback, wake the gate if a thread waits on this future.
  /// Returns whether a callback ran here.
  bool fulfill();

 private:
  // Callback slot states: then() moves kNone->kArmed (or runs inline after
  // kDone); fulfill() moves kNone->kDone or runs the kArmed callback. The
  // two CASes linearize the race, so the callback runs exactly once.
  enum : std::uint8_t { kNone = 0, kArmed = 1, kDone = 2, kRan = 3 };

  Runtime* rt_;
  std::atomic<std::int32_t> refs_{2};  // task + handle
  std::atomic<bool> done_{false};
  // Set by wait() before its last check of done_: fulfill() notifies the
  // runtime's gate only for a future a thread waits on, so retiring an
  // unwatched future wakes no idle worker. Both sides use seq_cst, so
  // either the waiter sees done_ or fulfill() sees this flag.
  std::atomic<bool> waited_{false};
  std::atomic<std::uint8_t> cb_state_{kNone};
  std::function<void()> cb_;
};

/// Move-only handle on one task's completion. Obtained from
/// StreamHandle::submit(); fire-and-forget submissions use post() and never
/// allocate future state.
class TaskFuture {
 public:
  TaskFuture() = default;
  explicit TaskFuture(FutureState* st) noexcept : st_(st) {}
  TaskFuture(TaskFuture&& o) noexcept : st_(o.st_) { o.st_ = nullptr; }
  TaskFuture& operator=(TaskFuture&& o) noexcept {
    if (this != &o) {
      if (st_) st_->release();
      st_ = o.st_;
      o.st_ = nullptr;
    }
    return *this;
  }
  TaskFuture(const TaskFuture&) = delete;
  TaskFuture& operator=(const TaskFuture&) = delete;
  ~TaskFuture() {
    if (st_) st_->release();
  }

  bool valid() const noexcept { return st_ != nullptr; }
  bool ready() const noexcept { return st_ && st_->ready(); }
  void wait() {
    SMPSS_CHECK(st_ != nullptr, "wait() on an invalid TaskFuture");
    st_->wait();
  }
  void then(std::function<void()> cb) {
    SMPSS_CHECK(st_ != nullptr, "then() on an invalid TaskFuture");
    st_->then(std::move(cb));
  }

 private:
  FutureState* st_ = nullptr;
};

/// Client-side handle on an open stream. Move-only; the destructor closes
/// the stream (draining it first). One handle may be driven by one client
/// thread at a time for submit/post; drain() is safe concurrently with
/// racing submitters on other handles/threads.
class StreamHandle {
 public:
  StreamHandle() = default;
  StreamHandle(StreamHandle&& o) noexcept : rt_(o.rt_), s_(o.s_) {
    o.rt_ = nullptr;
    o.s_ = nullptr;
  }
  StreamHandle& operator=(StreamHandle&& o) noexcept;
  StreamHandle(const StreamHandle&) = delete;
  StreamHandle& operator=(const StreamHandle&) = delete;
  ~StreamHandle();

  /// Submit a task and get its completion future. Same parameter contract
  /// as Runtime::spawn. Blocks (fairly, see sched/admission.hpp) while the
  /// stream is over its window/budget or the global window is full.
  template <typename F, detail::TaskParam... Ps>
  TaskFuture submit(TaskType type, F&& fn, Ps&&... ps);
  template <typename F, detail::TaskParam... Ps>
    requires(!std::is_same_v<std::decay_t<F>, TaskType>)
  TaskFuture submit(F&& fn, Ps&&... ps);

  /// Fire-and-forget submit: same admission, no future allocation.
  template <typename F, detail::TaskParam... Ps>
  void post(TaskType type, F&& fn, Ps&&... ps);
  template <typename F, detail::TaskParam... Ps>
    requires(!std::is_same_v<std::decay_t<F>, TaskType>)
  void post(F&& fn, Ps&&... ps);

  /// Alias of post() with Runtime::spawn's exact signature, so generic
  /// submission code (the pattern driver) templates over Runtime& and
  /// StreamHandle& interchangeably.
  template <typename F, detail::TaskParam... Ps>
  void spawn(TaskType type, F&& fn, Ps&&... ps) {
    post(type, std::forward<F>(fn), std::forward<Ps>(ps)...);
  }

  /// Wait until every task admitted through this stream so far has retired
  /// (callbacks included). Submissions racing the drain may extend it; the
  /// stream stays open.
  void drain();

  /// Drain, then refuse further submissions (diagnosed, not silently
  /// dropped). Idempotent.
  void close();

  bool valid() const noexcept { return s_ != nullptr; }
  bool open() const noexcept {
    return s_ != nullptr &&
           s_->phase.load(std::memory_order_acquire) ==
               StreamState::Phase::Open;
  }
  std::uint32_t id() const noexcept { return s_ ? s_->id : ~0u; }
  const std::string& name() const {
    static const std::string kInvalid = "<invalid>";
    return s_ ? s_->name : kInvalid;
  }

  /// The pinned runtime-owned state (tests/monitoring).
  StreamState* state() const noexcept { return s_; }

 private:
  friend class Runtime;
  StreamHandle(Runtime* rt, StreamState* s) noexcept : rt_(rt), s_(s) {}

  Runtime* rt_ = nullptr;
  StreamState* s_ = nullptr;
};

}  // namespace smpss
