// Cilk-like fork-join baseline: spawn/sync semantics, recursion, stealing,
// and correctness across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "baselines/forkjoin/forkjoin.hpp"

namespace smpss {
namespace {

long fib_fj(fj::Context& ctx, int n) {
  if (n < 2) return n;
  long a = 0, b = 0;
  ctx.spawn([n, &a](fj::Context& c) { a = fib_fj(c, n - 1); });
  b = fib_fj(ctx, n - 2);
  ctx.sync();
  return a + b;
}

class ForkJoin : public ::testing::TestWithParam<unsigned> {};

TEST_P(ForkJoin, FibCorrect) {
  fj::Scheduler s(GetParam());
  long result = 0;
  s.run_root([&](fj::Context& ctx) { result = fib_fj(ctx, 20); });
  EXPECT_EQ(result, 6765);
}

TEST_P(ForkJoin, ParallelSum) {
  fj::Scheduler s(GetParam());
  constexpr int kN = 1 << 16;
  std::vector<long> data(kN);
  std::iota(data.begin(), data.end(), 0L);
  std::atomic<long> total{0};
  s.run_root([&](fj::Context& ctx) {
    constexpr int kChunk = 1024;
    for (int lo = 0; lo < kN; lo += kChunk) {
      ctx.spawn([&, lo](fj::Context&) {
        long sum = 0;
        for (int i = lo; i < lo + kChunk; ++i) sum += data[i];
        total.fetch_add(sum, std::memory_order_relaxed);
      });
    }
    ctx.sync();
  });
  EXPECT_EQ(total.load(), static_cast<long>(kN) * (kN - 1) / 2);
}

TEST_P(ForkJoin, NestedSyncWaitsOnlyOwnChildren) {
  fj::Scheduler s(GetParam());
  std::atomic<int> order_ok{1};
  s.run_root([&](fj::Context& ctx) {
    std::atomic<bool> child_done{false};
    ctx.spawn([&](fj::Context& c2) {
      std::atomic<bool> grandchild_done{false};
      c2.spawn([&](fj::Context&) { grandchild_done.store(true); });
      c2.sync();
      if (!grandchild_done.load()) order_ok.store(0);
      child_done.store(true);
    });
    ctx.sync();
    if (!child_done.load()) order_ok.store(0);
  });
  EXPECT_EQ(order_ok.load(), 1);
}

TEST_P(ForkJoin, ManySmallTasks) {
  fj::Scheduler s(GetParam());
  std::atomic<long> count{0};
  s.run_root([&](fj::Context& ctx) {
    for (int i = 0; i < 20000; ++i)
      ctx.spawn([&](fj::Context&) { count.fetch_add(1, std::memory_order_relaxed); });
    ctx.sync();
  });
  EXPECT_EQ(count.load(), 20000);
}

TEST_P(ForkJoin, ReusableAcrossRoots) {
  fj::Scheduler s(GetParam());
  for (int round = 0; round < 10; ++round) {
    long result = 0;
    s.run_root([&](fj::Context& ctx) { result = fib_fj(ctx, 12); });
    EXPECT_EQ(result, 144);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ForkJoin, ::testing::Values(1u, 2u, 4u, 8u));

TEST(ForkJoinStats, StealsHappenWithManyThreads) {
  if (std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "stealing needs real hardware parallelism";
  fj::Scheduler s(8);
  std::atomic<long> sink{0};
  // The children land in the root's own deque, so one that runs on another
  // thread was stolen. The root waits for that (with a deadline) before it
  // joins, instead of racing its own sync() against the thieves.
  const std::thread::id root = std::this_thread::get_id();
  std::atomic<bool> ran_elsewhere{false};
  s.run_root([&](fj::Context& ctx) {
    for (int i = 0; i < 5000; ++i)
      ctx.spawn([&](fj::Context&) {
        long acc = 0;
        for (int k = 0; k < 2000; ++k) acc += k;
        sink.fetch_add(acc, std::memory_order_relaxed);
        if (std::this_thread::get_id() != root)
          ran_elsewhere.store(true, std::memory_order_relaxed);
      });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ran_elsewhere.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    ctx.sync();
  });
  EXPECT_GT(s.steals(), 0u);
}

}  // namespace
}  // namespace smpss
