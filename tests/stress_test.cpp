// Stress and failure-injection tests: high task churn, deep chains, rapid
// runtime construction/teardown, all-scheduler sweeps on contended DAGs,
// renamed-memory churn under pressure, and concurrent-submission hammers
// (many workers spawning nested tasks against the dependency engine at
// once). Historically this suite assumed single-threaded submission; the
// sweeps now run with nested mode both off and on so every scheduler
// configuration is exercised under multi-threaded submission too.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "runtime/runtime.hpp"

namespace smpss {
namespace {

TEST(Stress, HundredThousandTinyTasks) {
  Config cfg;  // all cores
  Runtime rt(cfg);
  std::atomic<long> count{0};
  for (int i = 0; i < 100000; ++i)
    rt.spawn([](std::atomic<long>* c) { c->fetch_add(1, std::memory_order_relaxed); },
             opaque(&count));
  rt.barrier();
  EXPECT_EQ(count.load(), 100000);
  EXPECT_EQ(rt.stats().tasks_executed, 100000u);
}

TEST(Stress, DeepChainTenThousand) {
  Config cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  long x = 0;
  for (int i = 0; i < 10000; ++i)
    rt.spawn([](long* p) { *p += 1; }, inout(&x));
  rt.barrier();
  EXPECT_EQ(x, 10000);
}

TEST(Stress, WideThenNarrowRepeated) {
  Config cfg;
  cfg.num_threads = 8;
  Runtime rt(cfg);
  constexpr int kWidth = 64, kRounds = 50;
  std::vector<long> lanes(kWidth, 0);
  long total = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (int w = 0; w < kWidth; ++w)
      rt.spawn([r](long* p) { *p += r + 1; }, inout(&lanes[w]));
    // Fan-in through a chain.
    for (int w = 0; w < kWidth; ++w)
      rt.spawn([](const long* l, long* t) { *t += *l; }, in(&lanes[w]),
               inout(&total));
  }
  rt.barrier();
  // Each round adds (r+1) to each lane, then adds every lane's running
  // value into total.
  long expect = 0;
  std::vector<long> sim(kWidth, 0);
  for (int r = 0; r < kRounds; ++r)
    for (int w = 0; w < kWidth; ++w) {
      sim[w] += r + 1;
      expect += sim[w];
    }
  EXPECT_EQ(total, expect);
}

TEST(Stress, RuntimeChurn) {
  for (int round = 0; round < 20; ++round) {
    Config cfg;
    cfg.num_threads = 1 + round % 8;
    Runtime rt(cfg);
    int x = 0;
    for (int i = 0; i < 50; ++i)
      rt.spawn([](int* p) { *p += 1; }, inout(&x));
    rt.barrier();
    ASSERT_EQ(x, 50);
  }
}

TEST(Stress, BarrierInsideHotLoop) {
  Config cfg;
  cfg.num_threads = 8;
  Runtime rt(cfg);
  long acc = 0;
  for (int round = 0; round < 200; ++round) {
    rt.spawn([](long* p) { *p += 1; }, inout(&acc));
    rt.barrier();
    ASSERT_EQ(acc, round + 1);  // value visible after every barrier
  }
}

class SchedulerSweep
    : public ::testing::TestWithParam<
          std::tuple<SchedulerMode, StealOrder, bool>> {};

TEST_P(SchedulerSweep, ContendedDagCorrect) {
  auto [mode, order, nested] = GetParam();
  Config cfg;
  cfg.num_threads = 8;
  cfg.scheduler_mode = mode;
  cfg.steal_order = order;
  cfg.nested_tasks = nested;
  Runtime rt(cfg);
  // Unsigned lanes: 200 steps of *7 wrap many times over — defined for
  // unsigned, and the oracle wraps identically (the UBSan CI leg rejects
  // the signed variant).
  constexpr int kChains = 24, kLen = 200;
  std::vector<unsigned long> chains(kChains, 0);
  for (int s = 0; s < kLen; ++s)
    for (int c = 0; c < kChains; ++c)
      rt.spawn([s](unsigned long* p) { *p = *p * 7 + static_cast<unsigned>(s); },
               inout(&chains[c]));
  rt.barrier();
  unsigned long expect = 0;
  for (int s = 0; s < kLen; ++s) expect = expect * 7 + static_cast<unsigned>(s);
  for (unsigned long v : chains) ASSERT_EQ(v, expect);
}

TEST_P(SchedulerSweep, ConcurrentSubmissionHammer) {
  // N parent tasks spawn simultaneously from every worker: per-parent
  // dependency chains (private data), a shared opaque counter, and a
  // taskwait-checked join. Hammers the concurrent submission pipeline, the
  // per-datum version chains, and the per-worker ready-list routing at once.
  auto [mode, order, nested] = GetParam();
  if (!nested) GTEST_SKIP() << "hammer targets multi-threaded submission";
  Config cfg;
  cfg.num_threads = 8;
  cfg.scheduler_mode = mode;
  cfg.steal_order = order;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  constexpr int kParents = 16, kChildren = 200;
  std::vector<long> lanes(kParents, 0);
  std::atomic<long> shared{0};
  std::atomic<int> joined_at_full{0};
  for (int p = 0; p < kParents; ++p) {
    rt.spawn(
        [&rt, &shared, &joined_at_full](long* lane) {
          for (int i = 0; i < kChildren; ++i)
            rt.spawn(
                [](long* q, std::atomic<long>* s) {
                  *q += 1;
                  s->fetch_add(1, std::memory_order_relaxed);
                },
                inout(lane), opaque(&shared));
          rt.taskwait();
          if (*lane == kChildren)
            joined_at_full.fetch_add(1, std::memory_order_relaxed);
        },
        inout(&lanes[p]));
  }
  rt.barrier();
  EXPECT_EQ(shared.load(), kParents * kChildren);
  EXPECT_EQ(joined_at_full.load(), kParents);
  for (long v : lanes) ASSERT_EQ(v, kChildren);
  EXPECT_EQ(rt.stats().tasks_nested,
            static_cast<std::uint64_t>(kParents) * kChildren);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SchedulerSweep,
    ::testing::Combine(::testing::Values(SchedulerMode::Distributed,
                                         SchedulerMode::Centralized),
                       ::testing::Values(StealOrder::CreationOrder,
                                         StealOrder::Random),
                       ::testing::Bool()));

TEST(Stress, NestedSharedFanInAcrossParents) {
  // Parents submit concurrently against *shared* data: each parent appends
  // its own chain on a private lane, then one fan-in child reads the lane
  // and accumulates into a shared total through a real inout dependency.
  // The fan-in order across parents is nondeterministic but the sum is not.
  Config cfg;
  cfg.num_threads = 8;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  constexpr int kParents = 12, kSteps = 50;
  std::vector<long> lanes(kParents, 0);
  long total = 0;
  for (int p = 0; p < kParents; ++p) {
    rt.spawn(
        [&rt, &total](long* lane) {
          for (int i = 0; i < kSteps; ++i)
            rt.spawn([](long* q) { *q += 1; }, inout(lane));
          rt.taskwait();
          // Commutative fan-in on shared `total`: dependency-safe because
          // inout chains serialize whatever submission interleaving the
          // parents produce.
          rt.spawn([](const long* l, long* t) { *t += *l; }, in(lane),
                   inout(&total));
        },
        inout(&lanes[p]));
  }
  rt.barrier();
  EXPECT_EQ(total, static_cast<long>(kParents) * kSteps);
}

TEST(Stress, NestedDeepChurnManyRounds) {
  // Repeated build/teardown with nested submission active, mirroring
  // RuntimeChurn for the concurrent paths.
  for (int round = 0; round < 10; ++round) {
    Config cfg;
    cfg.num_threads = 1 + round % 8;
    cfg.nested_tasks = true;
    Runtime rt(cfg);
    std::atomic<int> leaves{0};
    rt.spawn([&rt, &leaves] {
      for (int i = 0; i < 8; ++i)
        rt.spawn([&rt, &leaves] {
          for (int j = 0; j < 8; ++j)
            rt.spawn([&leaves] {
              leaves.fetch_add(1, std::memory_order_relaxed);
            });
          rt.taskwait();
        });
      rt.taskwait();
    });
    rt.barrier();
    ASSERT_EQ(leaves.load(), 64);
  }
}

TEST(Stress, RenameChurnBounded) {
  Config cfg;
  cfg.num_threads = 8;
  cfg.rename_memory_limit = 1 << 20;  // 1 MiB
  Runtime rt(cfg);
  constexpr std::size_t kObj = 1 << 14;  // 16 KiB objects
  std::vector<char> buf(kObj, 0);
  long sink = 0;
  for (int i = 0; i < 2000; ++i) {
    rt.spawn([](const char* p, long* s) { *s += p[0]; }, in(buf.data(), kObj),
             inout(&sink));
    rt.spawn([i](char* p) { p[0] = static_cast<char>(i & 0x7F); },
             out(buf.data(), kObj));
  }
  rt.barrier();
  EXPECT_EQ(rt.rename_pool().current_bytes(), 0u);
  EXPECT_LE(rt.rename_pool().peak_bytes(), (std::size_t{1} << 20) + kObj);
  EXPECT_EQ(buf[0], static_cast<char>(1999 & 0x7F));
}

TEST(Stress, ManyDistinctObjectsChurn) {
  Config cfg;
  cfg.num_threads = 8;
  Runtime rt(cfg);
  constexpr int kObjs = 2000;
  std::vector<int> objs(kObjs, 0);
  for (int pass = 0; pass < 5; ++pass) {
    for (int i = 0; i < kObjs; ++i)
      rt.spawn([](int* p) { *p += 3; }, inout(&objs[i]));
    rt.barrier();
  }
  for (int v : objs) ASSERT_EQ(v, 15);
}

TEST(Stress, MixedPriorityFlood) {
  Config cfg;
  cfg.num_threads = 8;
  Runtime rt(cfg);
  TaskType urgent = rt.register_task_type("urgent", true);
  std::atomic<long> normal{0}, high{0};
  for (int i = 0; i < 5000; ++i) {
    rt.spawn([](std::atomic<long>* c) { c->fetch_add(1); }, opaque(&normal));
    if (i % 10 == 0)
      rt.spawn(urgent, [](std::atomic<long>* c) { c->fetch_add(1); },
               opaque(&high));
  }
  rt.barrier();
  EXPECT_EQ(normal.load(), 5000);
  EXPECT_EQ(high.load(), 500);
  EXPECT_GE(rt.stats().acquired_high, 1u);
}

}  // namespace
}  // namespace smpss
