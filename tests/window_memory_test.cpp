// The Sec. III blocking conditions: the task-window (graph size limit) and
// the renamed-memory limit both make the main thread execute tasks, without
// changing program results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace smpss {
namespace {

TEST(TaskWindow, MainThreadExecutesWhenWindowFull) {
  Config cfg;
  cfg.num_threads = 2;
  cfg.task_window = 8;
  Runtime rt(cfg);
  // Rendezvous instead of timing: the worker holds in its first body until
  // the main thread has run a body itself, which it only does once the
  // window blocked it. A worker draining the empty bodies as fast as they
  // are spawned would otherwise keep the window from ever filling.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> main_ran{false};
  const auto rendezvous = [&] {
    if (rt.on_main_thread()) {  // the blocked submitter: never hold
      main_ran.store(true, std::memory_order_release);
      return;
    }
    while (!main_ran.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  };
  constexpr int kN = 500;
  std::vector<int> xs(kN, 0);
  for (int i = 0; i < kN; ++i)
    rt.spawn(
        [&rendezvous](int* p) {
          rendezvous();
          *p = 1;
        },
        out(&xs[i]));
  rt.barrier();
  for (int v : xs) EXPECT_EQ(v, 1);
  auto s = rt.stats();
  EXPECT_GE(s.main_blocked_on_window, 1u);
  // Main (worker 0) must have executed some of the work itself.
  EXPECT_GT(s.workers[0].executed, 0u);
}

TEST(TaskWindow, NestedSubmittersThrottleBestEffort) {
  // In nested mode the window also throttles in-task generators: a parent
  // fanning out far past the window must trigger the drain-ready throttle
  // (never a sleep — see Runtime::submit) and everything still completes.
  Config cfg;
  cfg.num_threads = 4;
  cfg.task_window = 16;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  // Rendezvous instead of timing: every other thread holds in its first
  // child body until the generator's thread has run a child itself. While
  // they hold no child retires, so the window fills and the generator runs
  // children in its throttle.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<std::thread::id> generator{};
  std::atomic<bool> generator_ran{false};
  const auto rendezvous = [&] {
    if (std::this_thread::get_id() ==
        generator.load(std::memory_order_acquire)) {  // never hold
      generator_ran.store(true, std::memory_order_release);
      return;
    }
    while (!generator_ran.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  };
  constexpr int kN = 2000;
  std::vector<int> xs(kN, 0);
  int* data = xs.data();
  rt.spawn([&rt, &generator, &rendezvous, data] {
    generator.store(std::this_thread::get_id(), std::memory_order_release);
    for (int i = 0; i < kN; ++i)
      rt.spawn(
          [&rendezvous](int* p) {
            rendezvous();
            *p = 1;
          },
          out(data + i));
    rt.taskwait();
  });
  rt.barrier();
  for (int v : xs) EXPECT_EQ(v, 1);
  EXPECT_GE(rt.stats().nested_throttled, 1u);
}

TEST(TaskWindow, NestedDeepChainsUnderTinyWindowNoDeadlock) {
  // Chains submitted from inside tasks with a window far smaller than the
  // live set: the best-effort throttle must not deadlock even when the
  // only ready sources are the throttled bodies themselves.
  Config cfg;
  cfg.num_threads = 2;
  cfg.task_window = 2;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  long chains[4] = {0, 0, 0, 0};
  for (long* c : {&chains[0], &chains[1], &chains[2], &chains[3]}) {
    rt.spawn(
        [&rt](long* p) {
          for (int i = 0; i < 100; ++i)
            rt.spawn([](long* q) { *q += 1; }, inout(p));
          rt.taskwait();
        },
        inout(c));
  }
  rt.barrier();
  for (long v : chains) EXPECT_EQ(v, 100);
}

TEST(TaskWindow, WindowOfTwoStillCorrectOnChains) {
  Config cfg;
  cfg.num_threads = 4;
  cfg.task_window = 2;
  Runtime rt(cfg);
  int x = 0;
  for (int i = 0; i < 200; ++i)
    rt.spawn([](int* p) { *p += 1; }, inout(&x));
  rt.barrier();
  EXPECT_EQ(x, 200);
}

class WindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowSweep, MixedDagCorrectUnderAnyWindow) {
  Config cfg;
  cfg.num_threads = 4;
  cfg.task_window = GetParam();
  Runtime rt(cfg);
  // Unsigned lanes: 50 steps of *3 wrap — defined for unsigned, and the
  // oracle wraps identically (the UBSan CI leg rejects the signed variant).
  constexpr int kChains = 8, kLen = 50;
  std::vector<unsigned long> chains(kChains, 0);
  for (int s = 0; s < kLen; ++s)
    for (int c = 0; c < kChains; ++c)
      rt.spawn(
          [s](unsigned long* p) { *p = *p * 3 + static_cast<unsigned>(s); },
          inout(&chains[c]));
  rt.barrier();
  unsigned long expect = 0;
  for (int s = 0; s < kLen; ++s) expect = expect * 3 + static_cast<unsigned>(s);
  for (unsigned long v : chains) EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(2u, 3u, 7u, 64u, 100000u));

TEST(MemoryLimit, RenameLimitBlocksAndFrees) {
  Config cfg;
  // One thread: every write renames (its reader is still pending), renamed
  // storage provably accumulates, and the memory-limit blocking condition
  // deterministically fires.
  cfg.num_threads = 1;
  cfg.rename_memory_limit = 1 << 16;  // 64 KiB
  Runtime rt(cfg);
  constexpr std::size_t kBufBytes = 1 << 12;  // 4 KiB renames
  std::vector<char> buf(kBufBytes, 0);
  long sink = 0;
  // Reader+writer alternation: every write renames 4 KiB. Without the limit
  // this would pile up ~1 MiB of renamed storage.
  for (int i = 0; i < 256; ++i) {
    rt.spawn([](const char* p, long* s) { *s += p[0]; }, in(buf.data(), kBufBytes),
             inout(&sink));
    rt.spawn([i](char* p) { p[0] = static_cast<char>(i); },
             out(buf.data(), kBufBytes));
  }
  rt.barrier();
  auto s = rt.stats();
  EXPECT_GE(s.renames, 200u);
  // Peak renamed footprint must respect the soft limit within one
  // allocation of slack.
  EXPECT_LE(rt.rename_pool().peak_bytes(), cfg.rename_memory_limit + kBufBytes);
  EXPECT_EQ(rt.rename_pool().current_bytes(), 0u);
  EXPECT_GE(s.main_blocked_on_memory, 1u);  // the limit must have fired
  EXPECT_EQ(buf[0], static_cast<char>(255));
}

TEST(MemoryLimit, ResultsUnaffectedByTinyLimit) {
  Config tight, loose;
  tight.num_threads = loose.num_threads = 4;
  tight.rename_memory_limit = 4096;
  loose.rename_memory_limit = std::size_t(1) << 30;

  auto run = [](const Config& cfg) {
    Runtime rt(cfg);
    std::vector<int> buf(256, 0);
    std::vector<int> reads(64, 0);
    for (int i = 0; i < 64; ++i) {
      rt.spawn([](const int* p, int* o) { *o = p[0]; },
               in(buf.data(), buf.size()), out(&reads[i]));
      rt.spawn([i](int* p) { p[0] = i + 1; }, out(buf.data(), buf.size()));
    }
    rt.barrier();
    return std::make_pair(buf[0], reads);
  };
  auto [vt, rt_] = run(tight);
  auto [vl, rl] = run(loose);
  EXPECT_EQ(vt, vl);
  EXPECT_EQ(rt_, rl);
}

}  // namespace
}  // namespace smpss
