// Service-mode implementation: stream lifecycle (open -> draining ->
// closed), fair blocking admission, the retire-side service hook, and
// future fulfillment. See runtime/stream.hpp for the model and
// sched/admission.hpp for the fairness policy.
#include "runtime/stream.hpp"

#include "common/timing.hpp"
#include "runtime/runtime.hpp"
#include "runtime/thread_context.hpp"

namespace smpss {

namespace {
/// Stream registry capacity. StreamStates are registry-pinned for the
/// Runtime's life (handles and stats() outlive a stream's close), so this
/// bounds open_stream() calls, not concurrency.
constexpr std::size_t kMaxStreams = 64;
}  // namespace

StreamHandle Runtime::open_stream(StreamOptions opts) {
  SMPSS_CHECK(cfg_.nested_tasks,
              "open_stream requires Config::nested_tasks (SMPSS_NESTED=1) — "
              "stream clients are concurrent submitters, and the non-nested "
              "runtime inline-demotes foreign-thread spawns");
  std::lock_guard<std::mutex> lk(streams_mu_);
  SMPSS_CHECK(streams_.size() < kMaxStreams,
              "stream registry full (64 streams per Runtime); closed "
              "streams stay registered");
  auto st = std::make_unique<StreamState>();
  st->id = static_cast<std::uint32_t>(streams_.size());
  st->name = opts.name.empty() ? "stream-" + std::to_string(st->id)
                               : std::move(opts.name);
  st->window = opts.task_window;
  st->ticket.weight = opts.weight == 0 ? 1 : opts.weight;
  StreamState* p = st.get();
  streams_.push_back(std::move(st));
  return StreamHandle(this, p);
}

std::size_t Runtime::open_stream_count() const {
  std::lock_guard<std::mutex> lk(streams_mu_);
  std::size_t n = 0;
  for (const auto& s : streams_)
    if (s->phase.load(std::memory_order_acquire) == StreamState::Phase::Open)
      ++n;
  return n;
}

void Runtime::stream_admit(StreamState& s) {
  SMPSS_CHECK(s.phase.load(std::memory_order_acquire) ==
                  StreamState::Phase::Open,
              "submission on a draining/closed stream");
  s.submitted.fetch_add(1, std::memory_order_relaxed);

  // Liveness exemptions mirror the foreign-thread gate (Runtime::submit): a
  // client inside *some* task body must never sleep (its own pool may be
  // waiting on it), and a runtime without workers has no independent
  // executor to drain the graph — both keep the window soft.
  const bool can_block = !in_task_context() && cfg_.num_threads >= 2;
  const auto self_full = [&] {
    return s.window != 0 && s.live.load(std::memory_order_acquire) >=
                                static_cast<std::int64_t>(s.window);
  };
  const auto global_full = [&] {
    return tasks_live_.load(std::memory_order_acquire) >= cfg_.task_window ||
           pool_.over_limit();
  };
  if (can_block &&
      (admission_.has_waiters() || self_full() || global_full())) {
    s.throttled.fetch_add(1, std::memory_order_relaxed);
    admission_.admit(s.ticket, [&]() -> AdmitProbe {
      // Stream-local limits classify as SelfFull (forfeit the turn: the
      // free capacity belongs to the other tenants); shared limits hold
      // the turn until a retire frees a slot.
      if (self_full()) return AdmitProbe::SelfFull;
      if (global_full()) return AdmitProbe::GlobalFull;
      return AdmitProbe::Taken;
    });
  }
  s.live.fetch_add(1, std::memory_order_relaxed);
}

void Runtime::retire_service(TaskNode* t) {
  // Future first: the callback must have finished by the time the stream's
  // live count can read zero, so drain()/close() returning implies every
  // callback already ran — "callbacks never run on a destroyed stream" is
  // this ordering, not a runtime check.
  bool callback_ran = false;
  if (FutureState* f = t->future) {
    t->future = nullptr;
    callback_ran = f->fulfill();
    f->release();  // task-side ref
  }
  StreamState* s = t->stream;
  if (s == nullptr) return;
  if (callback_ran) s->callbacks_run.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t now = now_ns();
  if (now > t->submit_ns)
    s->latency.record(now - t->submit_ns);
  s->retired.fetch_add(1, std::memory_order_relaxed);
  if (s->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Stream went quiescent: a drain()ing client may be asleep on the gate.
    gate_.notify_all();
  }
}

void Runtime::drain_stream(StreamState& s) {
  SMPSS_CHECK(!(in_task_context() && detail::tls.current_owner == this),
              "drain() may not run inside one of this runtime's own task "
              "bodies — it could wait on the very task it runs in");
  // A drain is a promise that the stream's submitted work retired — which
  // for tasks downstream of an open commuting group requires the group's
  // close to be reachable. Seal everything first (future submissions start
  // new groups; correctness is unaffected, only batching).
  seal_open_groups();
  wait_until([&] { return s.live.load(std::memory_order_acquire) <= 0; });
}

void Runtime::close_stream(StreamState& s) {
  StreamState::Phase expected = StreamState::Phase::Open;
  s.phase.compare_exchange_strong(expected, StreamState::Phase::Draining,
                                  std::memory_order_acq_rel);
  if (expected == StreamState::Phase::Closed) return;  // already closed
  drain_stream(s);
  s.phase.store(StreamState::Phase::Closed, std::memory_order_release);
  admission_.remove(s.ticket);
}

void Runtime::shutdown_streams() {
  // Snapshot under the registry lock, flip everything still Open to
  // Draining first (so no stream keeps feeding the window while its
  // sibling drains), then drain and close each.
  std::vector<StreamState*> open;
  {
    std::lock_guard<std::mutex> lk(streams_mu_);
    open.reserve(streams_.size());
    for (const auto& s : streams_) open.push_back(s.get());
  }
  for (StreamState* s : open) {
    StreamState::Phase expected = StreamState::Phase::Open;
    s->phase.compare_exchange_strong(expected, StreamState::Phase::Draining,
                                     std::memory_order_acq_rel);
  }
  for (StreamState* s : open) {
    if (s->phase.load(std::memory_order_acquire) ==
        StreamState::Phase::Closed)
      continue;
    drain_stream(*s);
    s->phase.store(StreamState::Phase::Closed, std::memory_order_release);
    admission_.remove(s->ticket);
  }
}

void Runtime::wait_future(FutureState& f) {
  SMPSS_CHECK(!(in_task_context() && detail::tls.current_owner == this),
              "TaskFuture::wait may not run inside one of this runtime's "
              "own task bodies");
  wait_until([&f] { return f.ready(); });
}

// --- FutureState --------------------------------------------------------------

void FutureState::wait() {
  if (ready()) return;
  waited_.store(true, std::memory_order_seq_cst);
  if (done_.load(std::memory_order_seq_cst)) return;
  rt_->wait_future(*this);
}

void FutureState::then(std::function<void()> cb) {
  cb_ = std::move(cb);
  std::uint8_t st = kNone;
  if (cb_state_.compare_exchange_strong(st, kArmed,
                                        std::memory_order_release,
                                        std::memory_order_acquire)) {
    return;  // the retiring worker will run it
  }
  SMPSS_CHECK(st == kDone, "TaskFuture::then: one callback per future");
  // Task already completed: run inline on the installing thread.
  cb_state_.store(kRan, std::memory_order_relaxed);
  cb_();
}

bool FutureState::fulfill() {
  std::uint8_t st = kNone;
  bool ran = false;
  if (!cb_state_.compare_exchange_strong(st, kDone,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    SMPSS_CHECK(st == kArmed, "future fulfilled twice");
    cb_state_.store(kRan, std::memory_order_relaxed);
    cb_();  // runs on the retiring worker, before done_ is published
    ran = true;
  }
  done_.store(true, std::memory_order_seq_cst);
  if (waited_.load(std::memory_order_seq_cst)) rt_->gate_.notify_all();
  return ran;
}

// --- StreamHandle -------------------------------------------------------------

StreamHandle& StreamHandle::operator=(StreamHandle&& o) noexcept {
  if (this != &o) {
    if (s_ != nullptr && rt_ != nullptr) rt_->close_stream(*s_);
    rt_ = o.rt_;
    s_ = o.s_;
    o.rt_ = nullptr;
    o.s_ = nullptr;
  }
  return *this;
}

StreamHandle::~StreamHandle() {
  if (s_ != nullptr && rt_ != nullptr) rt_->close_stream(*s_);
}

void StreamHandle::drain() {
  SMPSS_CHECK(s_ != nullptr, "drain() on an invalid StreamHandle");
  rt_->drain_stream(*s_);
}

void StreamHandle::close() {
  SMPSS_CHECK(s_ != nullptr, "close() on an invalid StreamHandle");
  rt_->close_stream(*s_);
}

}  // namespace smpss
