// Fairness of service-mode admission: the weighted deficit-round-robin unit
// semantics (deterministic, scripted token release — safe on a 1-core CI
// runner), the trickle-vs-greedy starvation guarantee on a real runtime,
// and the per-stream throttled splits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "sched/admission.hpp"

namespace smpss {
namespace {

// Scripted DRR: two tickets (weight 2 vs 1), one client thread per
// admission, and the main thread releasing exactly one slot at a time, only
// once every client not yet granted is blocked in admit(). Each grant is then
// decided with both tenants queued; a granted client never comes back, so
// neither ticket's queue empties mid-run and its unspent deficit is never
// skipped. The grant sequence must follow the 2:1 deficit rotation: in every
// prefix, |granted_a - 2 * granted_b| <= 2.
TEST(AdmissionFairness, WeightedDeficitRoundRobinDeterministic) {
  AdmissionControl adm;
  AdmissionTicket ta, tb;
  ta.weight = 2;
  tb.weight = 1;
  constexpr int kA = 40, kB = 20;  // 2:1, so both finish together
  std::atomic<int> tokens{0};
  std::mutex order_mu;
  std::vector<char> order;
  auto client = [&](AdmissionTicket& t, char id) {
    adm.admit(t, [&]() -> AdmitProbe {
      // Only the ring head probes (under the admission mutex), so the
      // token take needs no CAS. Record the grant before decrementing:
      // the main thread releases the next slot once tokens reads zero.
      if (tokens.load() == 0) return AdmitProbe::GlobalFull;
      {
        std::lock_guard<std::mutex> lk(order_mu);
        order.push_back(id);
      }
      tokens.fetch_sub(1);
      return AdmitProbe::Taken;
    });
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < kA; ++i) clients.emplace_back(client, std::ref(ta), 'a');
  for (int i = 0; i < kB; ++i) clients.emplace_back(client, std::ref(tb), 'b');
  for (int granted = 0; granted < kA + kB; ++granted) {
    while (adm.waiters() < static_cast<std::uint32_t>(kA + kB - granted))
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    tokens.fetch_add(1);
    adm.notify();
    while (tokens.load() != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  for (auto& c : clients) c.join();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kA + kB));
  int na = 0, nb = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    (order[i] == 'a' ? na : nb)++;
    const long diff = static_cast<long>(na) - 2L * nb;
    ASSERT_LE(diff, 2) << "prefix " << i << ": a ran too far ahead";
    ASSERT_GE(diff, -2) << "prefix " << i << ": b ran too far ahead";
  }
  EXPECT_EQ(na, kA);
  EXPECT_EQ(nb, kB);
  adm.remove(ta);
  adm.remove(tb);
}

// Single-threaded: a lone ticket whose probe reports SelfFull (its own
// window is the blocker) must not spin under the mutex — the forfeit path
// falls through to the bounded wait and re-probes until the limit clears.
TEST(AdmissionFairness, LoneSelfFullStreamMakesProgress) {
  AdmissionControl adm;
  AdmissionTicket t;
  int probes = 0;
  adm.admit(t, [&]() -> AdmitProbe {
    return ++probes < 3 ? AdmitProbe::SelfFull : AdmitProbe::Taken;
  });
  EXPECT_EQ(probes, 3);
  EXPECT_EQ(adm.waiters(), 0u);
  adm.remove(t);
}

// Tickets persist in the ring between admissions; turns pass over idle
// tickets. A single thread alternately admitting through two tickets (both
// always Taken) must never hang on the idle peer. 1-core-safe.
TEST(AdmissionFairness, IdleHeadsAreSkipped) {
  AdmissionControl adm;
  AdmissionTicket ta, tb;
  tb.weight = 3;
  for (int i = 0; i < 50; ++i) {
    adm.admit(ta, [] { return AdmitProbe::Taken; });
    adm.admit(tb, [] { return AdmitProbe::Taken; });
  }
  EXPECT_EQ(adm.waiters(), 0u);
  adm.remove(ta);
  adm.remove(tb);
}

// A greedy stream hammering a tight shared window from its own thread must
// not starve a trickle stream: every trickle submission gets admitted in
// bounded time (generous bound — CI runners are slow), and the throttle
// counts split per stream.
TEST(AdmissionFairness, TrickleStreamNotStarvedByGreedy) {
  if (std::thread::hardware_concurrency() < 3)
    GTEST_SKIP() << "needs >= 3 hardware threads for a meaningful race";
  Config cfg;
  cfg.num_threads = 3;
  cfg.nested_tasks = true;
  cfg.task_window = 32;  // tight: the greedy client saturates it
  Runtime rt(cfg);
  StreamHandle greedy = rt.open_stream({.name = "greedy"});
  StreamHandle trickle = rt.open_stream({.name = "trickle"});
  std::atomic<bool> stop{false};
  long g_cell = 0, t_cell = 0;
  std::thread g([&] {
    while (!stop.load(std::memory_order_relaxed))
      greedy.post(
          [](long* c) {
            // 20 us of work per task, so the workers retire slower than
            // this thread posts and the 32-task window really fills.
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(20);
            while (std::chrono::steady_clock::now() < until) {
            }
            *c += 1;
          },
          inout(&g_cell));
    greedy.drain();
  });
  constexpr int kTrickle = 100;
  std::int64_t worst_admit_ns = 0;
  std::thread t([&] {
    for (int i = 0; i < kTrickle; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      trickle.post([](long* c) { *c += 1; }, inout(&t_cell));
      const auto dt = std::chrono::steady_clock::now() - t0;
      worst_admit_ns = std::max<std::int64_t>(
          worst_admit_ns,
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    trickle.drain();
  });
  t.join();
  stop.store(true);
  g.join();
  EXPECT_EQ(trickle.state()->retired.load(), kTrickle);
  // Starvation bound: with round-robin admission a trickle submit waits for
  // at most a few greedy grants, each bounded by task retire time. 2 s per
  // admission would mean the old free-for-all gate behavior (unbounded —
  // the greedy client re-takes every freed slot).
  EXPECT_LT(worst_admit_ns, 2'000'000'000LL);
  const StatsSnapshot st = rt.stats();
  ASSERT_EQ(st.streams.size(), 2u);
  // The greedy stream outran the window, so it did queue; the split is per
  // stream, and the totals line up.
  EXPECT_GT(st.streams[0].throttled, 0u);
  EXPECT_EQ(st.streams[0].throttled + st.streams[1].throttled,
            st.stream_throttled);
  rt.barrier();
  EXPECT_EQ(t_cell, kTrickle);
  EXPECT_EQ(g_cell, static_cast<long>(st.streams[0].retired));
}

// Per-stream windows throttle only their own stream: the capped stream
// queues (throttled > 0), its sibling never does.
TEST(AdmissionFairness, PerStreamWindowThrottlesOnlyItself) {
  Config cfg;
  cfg.num_threads = 2;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  StreamHandle capped = rt.open_stream({.name = "capped", .task_window = 2});
  StreamHandle free_s = rt.open_stream({.name = "free"});
  long c0 = 0, c1 = 0;
  std::thread tc([&] {
    for (int i = 0; i < 200; ++i) {
      // A microsecond of work per task keeps the 2-deep window full so the
      // submitter actually hits its cap.
      capped.post(
          [](long* c) {
            for (int k = 0; k < 50; ++k) asm volatile("" ::: "memory");
            *c += 1;
          },
          inout(&c0));
    }
    capped.drain();
  });
  std::thread tf([&] {
    for (int i = 0; i < 200; ++i)
      free_s.post([](long* c) { *c += 1; }, inout(&c1));
    free_s.drain();
  });
  tc.join();
  tf.join();
  const StatsSnapshot st = rt.stats();
  ASSERT_EQ(st.streams.size(), 2u);
  EXPECT_GT(st.streams[0].throttled, 0u) << "2-deep window never filled?";
  EXPECT_EQ(st.streams[0].retired, 200u);
  EXPECT_EQ(st.streams[1].retired, 200u);
  rt.barrier();
  EXPECT_EQ(c0, 200);
  EXPECT_EQ(c1, 200);
}

// Weighted streams: both saturate, the heavier one gets more grants while
// both are queued. Correctness assertion only (counts), not timing: both
// must finish, and the per-stream latency histograms must have recorded
// every task.
TEST(AdmissionFairness, WeightedStreamsBothComplete) {
  Config cfg;
  cfg.num_threads = 4;
  cfg.nested_tasks = true;
  cfg.task_window = 16;
  Runtime rt(cfg);
  StreamHandle heavy = rt.open_stream({.name = "heavy", .weight = 4});
  StreamHandle light = rt.open_stream({.name = "light", .weight = 1});
  constexpr int kEach = 500;
  long h_cell = 0, l_cell = 0;
  std::thread th([&] {
    for (int i = 0; i < kEach; ++i)
      heavy.post([](long* c) { *c += 1; }, inout(&h_cell));
    heavy.drain();
  });
  std::thread tl([&] {
    for (int i = 0; i < kEach; ++i)
      light.post([](long* c) { *c += 1; }, inout(&l_cell));
    light.drain();
  });
  th.join();
  tl.join();
  EXPECT_EQ(heavy.state()->latency.count(), kEach);
  EXPECT_EQ(light.state()->latency.count(), kEach);
  rt.barrier();
  EXPECT_EQ(h_cell, kEach);
  EXPECT_EQ(l_cell, kEach);
}

}  // namespace
}  // namespace smpss
