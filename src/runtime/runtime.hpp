// smpss::Runtime — the public entry point of the library.
//
// An SMPSs program is a sequential program whose annotated functions become
// tasks (paper Sec. II). With this library the annotation is the spawn call:
//
//     smpss::Runtime rt;
//     auto sgemm_t = rt.register_task_type("sgemm_t");
//     for (int i = 0; i < N; i++)
//       for (int j = 0; j < N; j++)
//         for (int k = 0; k < N; k++)
//           rt.spawn(sgemm_t, sgemm_kernel,
//                    smpss::in(A[i][k], M*M), smpss::in(B[k][j], M*M),
//                    smpss::inout(C[i][j], M*M));
//     rt.barrier();
//
// The runtime analyzes parameter dependencies at each invocation, renames
// data to remove WAR/WAW hazards, builds the task graph, and schedules ready
// tasks over the worker threads with the locality policy of Sec. III.
//
// Threading contract (paper-faithful default): spawn/barrier/wait_on are
// main-thread calls (the thread that constructed the Runtime). A spawn
// issued from inside a task executes the function inline, mirroring the
// paper's "task calls inside tasks are treated as normal function calls".
//
// With Config::nested_tasks (SMPSS_NESTED=1) the inline demotion is lifted:
// spawn() is thread-safe and a spawn from inside a task creates a real child
// task. Dependency analysis takes no mutex in either mode: each datum's
// version-chain head is published by CAS and readers pin it speculatively
// (see dep/dependency_analyzer.hpp), so the in/out/inout submission path is
// lock-free end to end. Only the no-renaming ablation serializes concurrent
// submitters (on the region rwlock). Task sequence numbers come from an
// atomic counter and correctness rests on per-datum version-chain order, not
// on a global submission order: any two submissions that share a datum are
// totally ordered at its chain head, which keeps the graph acyclic. The
// paper-faithful path never takes any lock (single submitter). taskwait()
// suspends the calling task until its direct children finished, executing
// other ready tasks meanwhile; barrier/wait_on remain main-thread,
// outside-any-task calls.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/slab_pool.hpp"
#include "common/spin.hpp"
#include "common/timing.hpp"
#include "dep/dependency_analyzer.hpp"
#include "dep/region_analyzer.hpp"
#include "dep/renaming.hpp"
#include "graph/graph_recorder.hpp"
#include "graph/task.hpp"
#include "runtime/config.hpp"
#include "runtime/params.hpp"
#include "runtime/spawn_closure.hpp"
#include "runtime/stats.hpp"
#include "runtime/stream.hpp"
#include "sched/admission.hpp"
#include "sched/idle_wait.hpp"
#include "sched/ready_lists.hpp"
#include "trace/tracer.hpp"

namespace smpss {

/// Registered task-kind metadata (name for traces/DOT, scheduling priority —
/// the `highpriority` clause of the task construct).
struct TaskTypeInfo {
  std::string name;
  bool high_priority = false;
};

class Runtime {
 public:
  explicit Runtime(Config cfg = Config::from_env());

  /// Closes every stream, drains all in-flight tasks, realigns renamed
  /// data, and joins the workers. Callable from any thread *outside* this
  /// runtime's own task bodies: a destroying thread other than the
  /// constructing one first takes over the main ready-list slot (by the
  /// time destruction is valid, the constructing thread no longer uses this
  /// runtime), so both run the same drain as barrier().
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- task types -----------------------------------------------------------

  /// Declare a task kind. Mirrors `#pragma css task [highpriority]` on a
  /// function declaration. Main thread only.
  TaskType register_task_type(std::string name, bool high_priority = false);

  const std::vector<TaskTypeInfo>& task_types() const noexcept {
    return types_;
  }

  // --- task spawning ----------------------------------------------------------

  /// Invoke `fn` as a task of kind `type`. Parameters are wrapped with the
  /// typed access-mode API of runtime/params.hpp — smpss::in/out/inout/
  /// commutative/reduction (plus value/opaque/region); at execution `fn`
  /// receives the resolved (possibly renamed/privatized) pointers in the
  /// same order.
  template <typename F, detail::TaskParam... Ps>
  void spawn(TaskType type, F&& fn, Ps&&... ps) {
    if (!cfg_.nested_tasks && (!on_main_thread() || in_task_context())) {
      // Sec. VII.D: a task call inside a task is a normal function call.
      // The check covers worker threads AND the main thread while it is
      // executing tasks at a blocking condition.
      detail::invoke_inline(std::forward<F>(fn), std::forward<Ps>(ps)...);
      submit_counters_.tasks_inlined.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    build_task(type, nullptr, nullptr, std::forward<F>(fn),
               std::forward<Ps>(ps)...);
  }

  /// Spawn with the default (anonymous) task type. To select a registered
  /// type by name, pass find_task_type(name) to the overload above.
  template <typename F, detail::TaskParam... Ps>
    requires(!std::is_same_v<std::decay_t<F>, TaskType>)
  void spawn(F&& fn, Ps&&... ps) {
    spawn(TaskType{0}, std::forward<F>(fn), std::forward<Ps>(ps)...);
  }

  /// Look up a registered task type by name; TaskType{0} (the anonymous
  /// type) when no match. Safe from any thread once registration is done.
  TaskType find_task_type(const char* name) const noexcept;

  // --- synchronization ---------------------------------------------------------

  /// Wait for all spawned tasks, then realign renamed data back into the
  /// program's own storage. Equivalent to `#pragma css barrier`. The main
  /// thread executes tasks while it waits (Sec. III). Main thread only and
  /// never from inside a task body — a task that must wait for the tasks it
  /// spawned uses taskwait() instead.
  void barrier();

  /// Wait until every *direct child* spawned by the calling task body has
  /// finished executing (OpenMP `taskwait` semantics; children of children
  /// are not awaited — they are the child's responsibility). The calling
  /// thread executes other ready tasks while it waits, so a recursion
  /// deeper than the worker count cannot deadlock the pool. Outside any
  /// task body this waits for all live tasks (no data realignment — that is
  /// barrier()'s job). A no-op in inline (non-nested) mode inside a task,
  /// where children already ran as function calls.
  void taskwait();

  /// Wait until the latest version of `*ptr` has been produced, then copy it
  /// back to the program's storage so the main code can read it. Equivalent
  /// to CellSs/SMPSs `#pragma css wait on(ptr)`. Grants read access only;
  /// use barrier() before writing from main code.
  template <typename T>
  void wait_on(const T* ptr) {
    wait_on_addr(static_cast<const void*>(ptr));
  }

  // --- service mode -------------------------------------------------------------

  /// Open a persistent submission stream (see runtime/stream.hpp). Requires
  /// Config::nested_tasks (clients are concurrent submitters). Callable
  /// from any thread; the StreamState is registry-pinned until the Runtime
  /// dies. Task types must be registered before clients start submitting.
  StreamHandle open_stream(StreamOptions opts = {});

  /// Graceful whole-runtime shutdown of service mode: move every stream
  /// that is still Open to Draining (new submissions are diagnosed), wait
  /// for all their in-flight tasks (and callbacks) to retire, then mark
  /// them Closed. Does not touch non-stream tasks and does not realign
  /// renamed data — callers needing that run barrier() afterwards.
  void shutdown_streams();

  /// Streams currently in the Open phase.
  std::size_t open_stream_count() const;

  /// One-line JSON snapshot of the service counters (totals, window
  /// occupancy, per-stream admitted/throttled/latency). `tasks_per_s` < 0
  /// omits the rate field (the periodic exporter passes the rate it
  /// computes between periods).
  std::string stats_json(double tasks_per_s = -1.0) const;

  // --- introspection ------------------------------------------------------------

  StatsSnapshot stats() const;
  const Config& config() const noexcept { return cfg_; }
  unsigned num_threads() const noexcept { return cfg_.num_threads; }

  GraphRecorder& graph_recorder() noexcept { return recorder_; }
  const GraphRecorder& graph_recorder() const noexcept { return recorder_; }

  Tracer& tracer() noexcept { return tracer_; }
  const Tracer& tracer() const noexcept { return tracer_; }

  const RenamePool& rename_pool() const noexcept { return pool_; }

  /// Live (spawned, not yet completed) task count. Racy, monitoring only.
  std::size_t live_tasks() const noexcept {
    return tasks_live_.load(std::memory_order_relaxed);
  }

  bool on_main_thread() const noexcept {
    return std::this_thread::get_id() == main_thread_id_;
  }

  /// True while the calling thread is inside a task body (any Runtime).
  static bool in_task_context() noexcept;

 private:
  friend void worker_main(Runtime& rt, unsigned tid);
  friend class StreamHandle;
  friend class FutureState;

  /// Per-thread scheduling state, padded against false sharing.
  struct alignas(kCacheLineSize) WorkerState {
    WorkerCounters counters;
    Xoshiro256 rng;
  };

  /// The one task builder behind spawn() and the stream submissions: node,
  /// closure, the stream/future fields (null for a plain spawn), parent
  /// hookup and sequence number, the dependency analysis of every parameter
  /// in order, then submit().
  template <typename F, typename... Ps>
  void build_task(TaskType type, StreamState* stream, FutureState* future,
                  F&& fn, Ps&&... ps) {
    SMPSS_CHECK(type.id < types_.size(), "unregistered task type");
    // Pool slot of the submitting thread; kForeignTid (>= num_threads)
    // routes foreign submitters to the pool's internal lock-guarded slot.
    const unsigned alloc_slot = submitter_tid();
    TaskNode* t = allocate_task(alloc_slot);
    t->type_id = type.id;
    t->high_priority = types_[type.id].high_priority;
    if (stream != nullptr) {
      t->stream = stream;
      t->submit_ns = now_ns();
      t->future = future;
    }

    using C = detail::Closure<std::decay_t<F>, std::decay_t<Ps>...>;
    void* mem = t->allocate_closure(sizeof(C), alignof(C), alloc_slot);
    C* closure = ::new (mem)
        C{std::forward<F>(fn), std::tuple<std::decay_t<Ps>...>(
                                   std::forward<Ps>(ps)...)};
    t->set_vtable(&C::vtable);

    begin_submission(t);
    if constexpr (detail::directional_count<std::decay_t<Ps>...>() > 0) {
      // No dependency mutex: per-datum consistency comes from CAS
      // publication on each chain head (see dep/dependency_analyzer.hpp).
      // The single submitter takes no lock at all. Concurrent submitters
      // take the region rwlock exclusively for a region-qualified task and
      // for the no-renaming ablation (its per-version reader lists need
      // serialized submissions), shared while an address-only task may meet
      // a tracked region (the mixed-mode diagnosis), and not otherwise.
      constexpr bool kRegion =
          (detail::is_region_param<std::decay_t<Ps>> || ...);
      const bool exclusive = kRegion || !cfg_.renaming;
      const bool check_regions = exclusive || regions_.maybe_tracking();
      std::unique_lock<std::shared_mutex> excl_lk(region_mu_, std::defer_lock);
      std::shared_lock<std::shared_mutex> shared_lk(region_mu_,
                                                    std::defer_lock);
      if (cfg_.nested_tasks && check_regions) {
        if (exclusive)
          excl_lk.lock();
        else
          shared_lk.lock();
      }
      [&]<std::size_t... Is>(std::index_sequence<Is...>) {
        (analyze_param<Is>(closure, t, check_regions), ...);
      }(std::index_sequence_for<Ps...>{});
    }
    submit(t);
  }

  template <std::size_t I, typename C>
  void analyze_param(C* closure, TaskNode* t, bool check_regions) {
    using P = std::tuple_element_t<I, decltype(closure->params)>;
    if constexpr (detail::ParamTraits<P>::directional) {
      AccessDesc d = detail::ParamTraits<P>::desc(std::get<I>(closure->params));
      t->resolved.push_back(route_access(t, d, check_regions));
    }
  }

  /// Dispatch one access to the address-mode or region-mode analyzer,
  /// diagnosing mixed-mode use of one array. `check_region_table` is false
  /// only for a renaming address-only task while no region is tracked: the
  /// region table is then empty (and, for concurrent submitters, not
  /// locked), so it must not be read and cannot conflict anyway.
  void* route_access(TaskNode* t, const AccessDesc& d,
                     bool check_region_table);

  /// Hook up the parent link, assign the (atomic) sequence number, record
  /// the graph node.
  void begin_submission(TaskNode* t);

  /// Account the new task, release its creation guard, then apply the
  /// Sec. III blocking conditions (task window, rename-memory limit). A
  /// stream task skips them: stream_admit already applied them.
  void submit(TaskNode* t);

  /// The task-window low-water mark: a blocked submitter resumes once the
  /// live count has drained to it.
  std::size_t window_low() const noexcept { return cfg_.task_window / 2; }

  /// Ready-list index the calling thread owns in this runtime, or kForeignTid
  /// for threads this runtime does not know (their pushes go to the shared
  /// main list, never to a per-worker deque they do not own).
  static constexpr unsigned kForeignTid = ~0u;
  unsigned submitter_tid() const noexcept;

  /// Construct a TaskNode on a pooled block (steady state: no malloc).
  TaskNode* allocate_task(unsigned alloc_slot);

  void enqueue_ready(TaskNode* t, unsigned tid, bool at_creation);
  TaskNode* acquire(unsigned tid);

  /// Run `t`, then keep running immediate successors (Config::chain_depth)
  /// as the completions release them — each retire is still complete and in
  /// order (data tokens, parent notification, live count + threshold
  /// wakeups) before the next body starts.
  void execute_task(TaskNode* t, unsigned tid);

  /// One body + full retire. Returns the task to chain into (the single
  /// successor this completion released, when `allow_chain` and no pending
  /// high-priority task preempts it), or nullptr to return to the lists.
  TaskNode* execute_one(TaskNode* t, unsigned tid, bool arrived_by_chain,
                        bool allow_chain);

  // --- the data half of every retire (execute_one and retire_close) ---------

  /// Mark `t`'s produced versions, close its successor stack, and hand each
  /// successor this completion released to `on_ready` — except close nodes,
  /// which retire right here (retire_close, recursively).
  template <typename OnReady>
  void release_successors(TaskNode* t, unsigned tid, OnReady&& on_ready);

  /// Release `t`'s data tokens: reader marks first (so WAR decisions and
  /// wait_on see the truth), then the latest-tokens of the versions its
  /// writes superseded, then the produced versions.
  void release_data(TaskNode* t);

  /// The one blocking loop. Sec. III: at a blocking condition a thread
  /// "behaves as a worker thread until an unblocking condition is reached".
  /// A caller that owns a ready-list slot of this runtime (a worker, the
  /// main thread, the off-thread destructor) runs ready tasks until
  /// `done()`; after `spins` failed passes, with backoff between them, it
  /// takes the gate's two-phase sleep (bounded at the gate's 500 us) and
  /// counts it into its row's idle_sleeps and idle_ns. A thread without a
  /// slot never runs tasks here and only sleeps. worker_main passes 128
  /// spins; every other wait passes none.
  template <typename Done>
  void wait_until(Done&& done, unsigned spins = 0) {
    const unsigned tid = submitter_tid();
    unsigned failures = 0;
    Backoff backoff;
    const auto run_one = [&] {
      TaskNode* t = tid == kForeignTid ? nullptr : acquire(tid);
      if (t == nullptr) return false;
      execute_task(t, tid);
      failures = 0;
      backoff.reset();
      return true;
    };
    while (!done()) {
      if (run_one()) continue;
      if (++failures < spins) {
        backoff.pause();
        continue;
      }
      // Two-phase sleep: snapshot the gate, re-check both the condition and
      // the lists, then block until a notify moves the epoch.
      const std::uint64_t seen = gate_.prepare_wait();
      if (done()) return;
      if (run_one()) continue;
      const std::uint64_t w0 = now_ns();
      gate_.wait(seen);
      if (tid != kForeignTid) {
        WorkerCounters& wc = worker_state_[tid].counters;
        ++wc.idle_sleeps;
        wc.idle_ns += now_ns() - w0;
      }
      failures = 0;
      backoff.reset();
    }
  }

  /// Wait until no task is live, then seal every open commuting group,
  /// realign renamed data into program storage and drop all dependency
  /// state: barrier()'s body, and the destructor's on either thread.
  void drain_and_flush();

  void wait_on_addr(const void* addr);

  // --- commuting-group internals (dep/access_group.hpp) ----------------------

  /// Retire a group-close node: apply its inherit copies, combine reduction
  /// privates into the group storage, mark its version produced, and release
  /// the successors it was holding. Runs wherever the last dependency of the
  /// close resolves (a worker completing the last member, or the submitter
  /// via drain_group_closes when the analyzer sealed an empty/idle group).
  void retire_close(TaskNode* close, unsigned tid);

  /// Retire every close node the analyzer queued (groups sealed on the
  /// submission path resolve there, never on a worker). Called from
  /// submit/barrier/wait_on/drain — any point that observes the analyzer.
  void drain_group_closes();

  /// Seal every open commuting group and retire the closes: barrier,
  /// wait_on and drain are non-matching accesses to everything.
  void seal_open_groups() {
    dep_.close_open_groups();
    drain_group_closes();
  }

  // --- service mode internals (runtime/stream.cpp) ---------------------------

  /// Blocking admission for one stream submission: fast path when nobody is
  /// queued and capacity is free, else the weighted round-robin queue.
  /// Increments s.submitted and s.live.
  void stream_admit(StreamState& s);

  /// Retire-side service hook: fulfill the future (callback runs here,
  /// before the stream's live count drops), record latency, credit the
  /// stream, wake drainers.
  void retire_service(TaskNode* t);

  void drain_stream(StreamState& s);
  void close_stream(StreamState& s);
  void wait_future(FutureState& f);

  void stats_exporter_main();

  /// StreamHandle::submit/post forward here. `want_future` gates the
  /// FutureState allocation (post() never allocates one).
  template <typename F, detail::TaskParam... Ps>
  TaskFuture spawn_stream(StreamState& s, bool want_future, TaskType type,
                          F&& fn, Ps&&... ps) {
    stream_admit(s);
    // A FutureState starts with two refs: the task's, dropped after
    // fulfill(), and the returned handle's.
    FutureState* f = want_future ? new FutureState(this) : nullptr;
    build_task(type, &s, f, std::forward<F>(fn), std::forward<Ps>(ps)...);
    return TaskFuture(f);
  }

  Config cfg_;
  std::thread::id main_thread_id_;
  /// Pooled TaskNode/closure/edge storage. Declared before (so destroyed
  /// after) the analyzers and the rename pool: their destructors release the
  /// last version-held task references, which recycle nodes into this arena.
  TaskArena arena_;
  RenamePool pool_;
  GraphRecorder recorder_;
  DependencyAnalyzer dep_;
  RegionAnalyzer regions_;
  /// The Sec. III ready lists: owner of every placement, lookup and steal
  /// decision (sched/ready_lists.hpp).
  ReadyLists<TaskNode> ready_;
  /// Every blocked thread sleeps here, in wait_until and nowhere else.
  IdleGate gate_;
  Tracer tracer_;

  std::vector<TaskTypeInfo> types_;
  std::unique_ptr<WorkerState[]> worker_state_;  // [0]=main, [1..n-1]=workers
  std::vector<std::thread> threads_;

  /// Written by a locked RMW on every spawn and every retire, so it gets a
  /// cache line of its own: idle workers read shutdown_ and worker_state_
  /// on every loop pass.
  alignas(kCacheLineSize) std::atomic<std::size_t> tasks_live_{0};
  alignas(kCacheLineSize) std::atomic<bool> shutdown_{false};

  /// Guards the RegionAnalyzer tables. Region-qualified submissions hold it
  /// exclusively, and so do all submissions of the no-renaming ablation
  /// (its reader lists need them serialized); address-mode submissions
  /// otherwise hold it shared (only for the mixed-mode diagnosis), so they
  /// stay mutually concurrent. The single-submitter path never touches it.
  std::shared_mutex region_mu_;

  /// Invocation identifier source. Atomic: sequence numbers identify tasks
  /// in traces and the recorded graph but no longer define a global
  /// submission order — correctness rests on per-datum version-chain order
  /// established by the chain-head CAS.
  std::atomic<std::uint64_t> seq_{0};

  /// Tasks submitted: the anchor of stats()' snapshot epoch, so kept apart
  /// from the submission counter table.
  std::atomic<std::uint64_t> spawned_{0};
  SubmitCounters submit_counters_;

  // --- service mode ----------------------------------------------------------

  /// Append-only stream registry: StreamStates are never freed or reused
  /// before the Runtime dies (handles and stats() outlive a stream's
  /// close). Guarded by streams_mu_ for growth; the states themselves are
  /// internally synchronized.
  mutable std::mutex streams_mu_;
  std::vector<std::unique_ptr<StreamState>> streams_;

  /// Weighted round-robin admission for stream submissions (the fairness
  /// replacement for the free-for-all foreign-thread gate).
  AdmissionControl admission_;

  // periodic JSON stats exporter (Config::stats_period_ms > 0)
  std::thread stats_thread_;
  std::mutex stats_mu_;
  std::condition_variable stats_cv_;
  bool stats_stop_ = false;
};

// --- StreamHandle template forwarding (needs the full Runtime type) -----------

template <typename F, detail::TaskParam... Ps>
TaskFuture StreamHandle::submit(TaskType type, F&& fn, Ps&&... ps) {
  SMPSS_CHECK(s_ != nullptr, "submit() on an invalid StreamHandle");
  return rt_->spawn_stream(*s_, /*want_future=*/true, type,
                           std::forward<F>(fn), std::forward<Ps>(ps)...);
}

template <typename F, detail::TaskParam... Ps>
  requires(!std::is_same_v<std::decay_t<F>, TaskType>)
TaskFuture StreamHandle::submit(F&& fn, Ps&&... ps) {
  return submit(TaskType{0}, std::forward<F>(fn), std::forward<Ps>(ps)...);
}

template <typename F, detail::TaskParam... Ps>
void StreamHandle::post(TaskType type, F&& fn, Ps&&... ps) {
  SMPSS_CHECK(s_ != nullptr, "post() on an invalid StreamHandle");
  rt_->spawn_stream(*s_, /*want_future=*/false, type, std::forward<F>(fn),
                    std::forward<Ps>(ps)...);
}

template <typename F, detail::TaskParam... Ps>
  requires(!std::is_same_v<std::decay_t<F>, TaskType>)
void StreamHandle::post(F&& fn, Ps&&... ps) {
  post(TaskType{0}, std::forward<F>(fn), std::forward<Ps>(ps)...);
}

}  // namespace smpss
