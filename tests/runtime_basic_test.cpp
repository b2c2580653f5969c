// Runtime API behavior: spawning, barriers, wait_on, priorities, nested
// spawns, task types, stats bookkeeping — across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace smpss {
namespace {

/// Task bodies spin here until another thread opens the flag, holding a
/// data access open while the main thread sits in wait_on().
void hold_until(const std::atomic<bool>* go) {
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
}

/// Opens `go` from another thread about 50 ms from now: long enough for a
/// wait_on() that does not wait for the held access to run ahead of it.
std::thread open_after_50ms(std::atomic<bool>& go) {
  return std::thread([&go] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    go.store(true, std::memory_order_release);
  });
}

class RuntimeBasic : public ::testing::TestWithParam<unsigned> {
 protected:
  Config cfg() const {
    Config c;
    c.num_threads = GetParam();
    return c;
  }
};

TEST_P(RuntimeBasic, EmptyBarrierIsFine) {
  Runtime rt(cfg());
  rt.barrier();
  rt.barrier();
  EXPECT_EQ(rt.stats().tasks_spawned, 0u);
  EXPECT_EQ(rt.stats().barriers, 2u);
}

TEST_P(RuntimeBasic, DestructorDrainsWithoutExplicitBarrier) {
  std::atomic<int> ran{0};
  {
    Runtime rt(cfg());
    for (int i = 0; i < 100; ++i)
      rt.spawn([](std::atomic<int>* r) { r->fetch_add(1); }, opaque(&ran));
  }  // ~Runtime barriers + joins
  EXPECT_EQ(ran.load(), 100);
}

TEST_P(RuntimeBasic, ChainExecutesInOrder) {
  Runtime rt(cfg());
  std::vector<int> order;
  order.reserve(64);
  int x = 0;
  for (int i = 0; i < 64; ++i)
    rt.spawn(
        [i, &order](int* p) {
          order.push_back(i);  // safe: the chain serializes the bodies
          *p += i;
        },
        inout(&x));
  rt.barrier();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(x, 64 * 63 / 2);
}

TEST_P(RuntimeBasic, FanOutFanIn) {
  Runtime rt(cfg());
  constexpr int kN = 256;
  int src = 3;
  std::vector<long> mid(kN, 0);
  long total = 0;
  for (int i = 0; i < kN; ++i)
    rt.spawn([i](const int* s, long* m) { *m = *s * (i + 1); }, in(&src),
             out(&mid[i]));
  // Fan-in: one task reading all intermediates would need kN params; chain a
  // reduction instead, which also exercises long dependency chains.
  for (int i = 0; i < kN; ++i)
    rt.spawn([](const long* m, long* t) { *t += *m; }, in(&mid[i]),
             inout(&total));
  rt.barrier();
  long expect = 0;
  for (int i = 0; i < kN; ++i) expect += 3L * (i + 1);
  EXPECT_EQ(total, expect);
}

TEST_P(RuntimeBasic, DiamondDependency) {
  Runtime rt(cfg());
  int a = 0, b = 0, c = 0, d = 0;
  rt.spawn([](int* p) { *p = 5; }, out(&a));
  rt.spawn([](const int* s, int* p) { *p = *s + 1; }, in(&a), out(&b));
  rt.spawn([](const int* s, int* p) { *p = *s * 2; }, in(&a), out(&c));
  rt.spawn([](const int* x, const int* y, int* p) { *p = *x + *y; }, in(&b),
           in(&c), out(&d));
  rt.barrier();
  EXPECT_EQ(d, 16);  // (5+1) + (5*2)
}

TEST_P(RuntimeBasic, NestedSpawnRunsInline) {
  Runtime rt(cfg());
  std::atomic<int> inner_runs{0};
  int x = 0;
  rt.spawn(
      [&rt, &inner_runs](int* p) {
        // A task spawning a task: executed as a plain function call
        // (paper Sec. VII.D), operating on the program's own pointers.
        rt.spawn([&inner_runs](int* q) {
          inner_runs.fetch_add(1);
          *q += 10;
        },
                 inout(p));
        *p += 1;
      },
      inout(&x));
  rt.barrier();
  EXPECT_EQ(inner_runs.load(), 1);
  EXPECT_EQ(x, 11);
  EXPECT_EQ(rt.stats().tasks_inlined, 1u);
  EXPECT_EQ(rt.stats().tasks_spawned, 1u);
}

TEST_P(RuntimeBasic, HighPriorityTypeIsScheduledFromHighList) {
  Config c = cfg();
  Runtime rt(c);
  TaskType urgent = rt.register_task_type("urgent", /*high_priority=*/true);
  std::atomic<int> runs{0};
  for (int i = 0; i < 32; ++i)
    rt.spawn(urgent, [](std::atomic<int>* r) { r->fetch_add(1); },
             opaque(&runs));
  rt.barrier();
  EXPECT_EQ(runs.load(), 32);
  EXPECT_GE(rt.stats().acquired_high, 1u);
}

TEST_P(RuntimeBasic, WaitOnMakesValueReadable) {
  Runtime rt(cfg());
  int x = 0;
  long slow_sink = 0;
  rt.spawn([](int* p) { *p = 42; }, out(&x));
  // Unrelated slow work that is NOT waited on.
  rt.spawn(
      [](long* s) {
        for (int i = 0; i < 2000000; ++i) *s += i;
      },
      inout(&slow_sink));
  rt.wait_on(&x);
  EXPECT_EQ(x, 42);  // readable before the barrier
  rt.barrier();
}

TEST_P(RuntimeBasic, WaitOnUntrackedAddressReturnsImmediately) {
  Runtime rt(cfg());
  int never_used = 9;
  rt.wait_on(&never_used);
  EXPECT_EQ(never_used, 9);
}

TEST_P(RuntimeBasic, WaitOnRenamedVersionCopiesBack) {
  Runtime rt(cfg());
  int x = 1;
  int r = 0;
  rt.spawn([](const int* p, int* o) { *o = *p; }, in(&x), out(&r));
  rt.spawn([](int* p) { *p = 2; }, out(&x));  // renamed (pending reader)
  rt.wait_on(&x);
  EXPECT_EQ(x, 2);
  rt.barrier();
  EXPECT_EQ(r, 1);  // the copy-back waited for the reader
  EXPECT_EQ(rt.rename_pool().current_bytes(), 0u);
}

TEST_P(RuntimeBasic, WaitOnWaitsForHeldUserBufferReader) {
  // The reader keeps x's user buffer busy for ~50 ms; the out behind it
  // renames and can finish at once. wait_on must not copy the renamed value
  // into x before the reader has read the old one.
  Runtime rt(cfg());
  int x = 1;
  int seen = 0;
  std::atomic<bool> go{false};
  rt.spawn(
      [](std::atomic<bool>* g, const int* p, int* o) {
        hold_until(g);
        *o = *p;
      },
      opaque(&go), in(&x), out(&seen));
  rt.spawn([](int* p) { *p = 2; }, out(&x));  // renamed (pending reader)
  std::thread opener = open_after_50ms(go);
  rt.wait_on(&x);
  EXPECT_EQ(x, 2);
  rt.barrier();
  opener.join();
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(rt.stats().renames, 1u);
  EXPECT_EQ(rt.rename_pool().current_bytes(), 0u);
}

TEST_P(RuntimeBasic, WaitOnWaitsForGrowingInoutTailCopy) {
  // A held reader makes the out of buf[0..1] rename. The inout of buf[0..3]
  // after it grows the datum, so it renames too and, at its start, copies
  // buf[2..3] from the user buffer. The out of buf[0..3] behind it renames
  // and can finish at once. wait_on must wait for the growing inout's
  // copy-in (its predecessor is held ~50 ms) before copying into buf.
  Runtime rt(cfg());
  int buf[4] = {1, 2, 3, 4};
  int seen[4] = {};
  std::atomic<bool> reader_go{false}, writer_go{false};
  rt.spawn([](std::atomic<bool>* g, const int*) { hold_until(g); },
           opaque(&reader_go), in(buf, 2));
  rt.spawn(
      [](std::atomic<bool>* g, int* p) {
        hold_until(g);
        p[0] = 10;
        p[1] = 20;
      },
      opaque(&writer_go), out(buf, 2));
  rt.spawn([](int* p, int* s) { std::copy(p, p + 4, s); }, inout(buf, 4),
           out(seen, 4));
  rt.spawn([](int* p) { std::fill(p, p + 4, 7); }, out(buf, 4));
  // The user buffer's plain reader may finish now; only the growing
  // inout's copy-in is left to read it.
  reader_go.store(true, std::memory_order_release);
  std::thread opener = open_after_50ms(writer_go);
  rt.wait_on(buf);
  for (int v : buf) EXPECT_EQ(v, 7);
  rt.barrier();
  opener.join();
  EXPECT_EQ(seen[0], 10);
  EXPECT_EQ(seen[1], 20);
  EXPECT_EQ(seen[2], 3);
  EXPECT_EQ(seen[3], 4);
  EXPECT_EQ(rt.stats().renames, 3u);  // the out, the growing inout, the out
  EXPECT_EQ(rt.rename_pool().current_bytes(), 0u);
}

TEST_P(RuntimeBasic, StatsSpawnedEqualsExecuted) {
  Runtime rt(cfg());
  std::vector<int> xs(200, 0);
  for (int i = 0; i < 200; ++i)
    rt.spawn([](int* p) { *p = 1; }, out(&xs[i]));
  rt.barrier();
  auto s = rt.stats();
  EXPECT_EQ(s.tasks_spawned, 200u);
  EXPECT_EQ(s.tasks_executed, 200u);
  EXPECT_EQ(s.ready_at_creation, 200u);  // independent tasks
}

TEST_P(RuntimeBasic, TaskTypeNamesRecorded) {
  Runtime rt(cfg());
  TaskType a = rt.register_task_type("alpha");
  TaskType b = rt.register_task_type("beta", true);
  EXPECT_EQ(rt.task_types()[a.id].name, "alpha");
  EXPECT_EQ(rt.task_types()[b.id].name, "beta");
  EXPECT_TRUE(rt.task_types()[b.id].high_priority);
  EXPECT_FALSE(rt.task_types()[a.id].high_priority);
}

TEST_P(RuntimeBasic, LargeClosuresSpillToHeap) {
  Runtime rt(cfg());
  // Capture ~400 bytes by value: exceeds the inline closure buffer.
  std::array<long, 50> payload{};
  payload.fill(7);
  long sum = 0;
  rt.spawn([payload](long* out_sum) {
    long s = 0;
    for (long v : payload) s += v;
    *out_sum = s;
  },
           out(&sum));
  rt.barrier();
  EXPECT_EQ(sum, 350);
}

TEST_P(RuntimeBasic, ManyIndependentRootsAllRun) {
  Runtime rt(cfg());
  constexpr int kN = 5000;
  std::vector<unsigned char> flags(kN, 0);
  for (int i = 0; i < kN; ++i)
    rt.spawn([](unsigned char* f) { *f = 1; }, out(&flags[i]));
  rt.barrier();
  EXPECT_EQ(std::accumulate(flags.begin(), flags.end(), 0), kN);
}

INSTANTIATE_TEST_SUITE_P(Threads, RuntimeBasic,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(RuntimeConfig, EnvOverrides) {
  ::setenv("SMPSS_NUM_THREADS", "3", 1);
  ::setenv("SMPSS_RENAMING", "0", 1);
  ::setenv("SMPSS_SCHEDULER", "centralized", 1);
  Config c = Config::from_env();
  EXPECT_EQ(c.num_threads, 3u);
  EXPECT_FALSE(c.renaming);
  EXPECT_EQ(c.scheduler_mode, SchedulerMode::Centralized);
  ::unsetenv("SMPSS_NUM_THREADS");
  ::unsetenv("SMPSS_RENAMING");
  ::unsetenv("SMPSS_SCHEDULER");
}

// A set variable that does not parse must stop the program, naming itself
// and what it accepts: a misspelt ablation would otherwise run the default.
TEST(RuntimeConfig, MisspeltSchedulerDies) {
  EXPECT_DEATH(
      {
        ::setenv("SMPSS_SCHEDULER", "centralised", 1);
        Config::from_env();
      },
      "SMPSS_SCHEDULER=\"centralised\" is invalid; it accepts distributed "
      "or centralized");
}

TEST(RuntimeConfig, TrailingGarbageIntegerDies) {
  EXPECT_DEATH(
      {
        ::setenv("SMPSS_NUM_THREADS", "4x", 1);
        Config::from_env();
      },
      "SMPSS_NUM_THREADS=\"4x\" is invalid; it accepts a positive integer");
}

TEST(RuntimeConfig, NormalizeDerivesFields) {
  Config c;
  c.num_threads = 0;
  c.normalize();
  EXPECT_GE(c.num_threads, 1u);
}

}  // namespace
}  // namespace smpss
