// Unit tests for the common substrate: small_vector, aligned allocation,
// memory accounting, RNG determinism, env parsing, spin primitives, and the
// fork-join thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_alloc.hpp"
#include "common/affinity.hpp"
#include "common/cache.hpp"
#include "common/env.hpp"
#include "common/memcopy.hpp"
#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "common/spin.hpp"
#include "common/thread_pool.hpp"
#include "common/timing.hpp"

namespace smpss {
namespace {

// --- cache/alignment helpers ---------------------------------------------------

TEST(Cache, AlignUp) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_up(127, 8), 128u);
}

TEST(Cache, IsAligned) {
  alignas(64) char buf[128];
  EXPECT_TRUE(is_aligned(buf, 64));
  EXPECT_FALSE(is_aligned(buf + 1, 2));
  EXPECT_TRUE(is_aligned(buf + 8, 8));
}

// --- aligned allocation -------------------------------------------------------

TEST(AlignedAlloc, ReturnsAlignedPointers) {
  for (std::size_t align : {8u, 16u, 64u, 128u, 4096u}) {
    void* p = aligned_alloc_bytes(100, align);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(is_aligned(p, align));
    aligned_free_bytes(p);
  }
}

TEST(AlignedAlloc, ZeroSizeGivesUsablePointer) {
  void* p = aligned_alloc_bytes(0, 64);
  ASSERT_NE(p, nullptr);
  aligned_free_bytes(p);
}

TEST(MemoryAccountant, TracksCurrentPeakTotal) {
  MemoryAccountant acc;
  acc.add(100);
  acc.add(50);
  EXPECT_EQ(acc.current(), 150u);
  EXPECT_EQ(acc.peak(), 150u);
  acc.sub(120);
  EXPECT_EQ(acc.current(), 30u);
  EXPECT_EQ(acc.peak(), 150u);
  acc.add(10);
  EXPECT_EQ(acc.total(), 160u);
  EXPECT_EQ(acc.peak(), 150u);
}

TEST(MemoryAccountant, ConcurrentAddsBalance) {
  MemoryAccountant acc;
  constexpr int kThreads = 8, kOps = 10000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&acc] {
      for (int i = 0; i < kOps; ++i) {
        acc.add(16);
        acc.sub(16);
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(acc.current(), 0u);
  EXPECT_EQ(acc.total(), static_cast<std::size_t>(kThreads) * kOps * 16);
}

// --- small_vector ---------------------------------------------------------------

TEST(SmallVector, StaysInlineWithinCapacity) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, SpillsToHeapAndKeepsContents) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i * 3);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 3);
}

TEST(SmallVector, PopBackAndClear) {
  SmallVector<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.back(), 1);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, MoveFromInline) {
  SmallVector<std::string, 4> a;
  a.push_back("hello");
  a.push_back("world");
  SmallVector<std::string, 4> b(std::move(a));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], "hello");
  EXPECT_EQ(b[1], "world");
  EXPECT_TRUE(a.empty());
}

TEST(SmallVector, MoveFromHeapStealsBuffer) {
  SmallVector<std::string, 2> a;
  for (int i = 0; i < 20; ++i) a.push_back("s" + std::to_string(i));
  SmallVector<std::string, 2> b(std::move(a));
  ASSERT_EQ(b.size(), 20u);
  EXPECT_EQ(b[19], "s19");
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.is_inline());  // donor reset to inline state
}

TEST(SmallVector, MoveAssignReplacesContents) {
  SmallVector<int, 2> a, b;
  a.push_back(1);
  for (int i = 0; i < 10; ++i) b.push_back(i);
  a = std::move(b);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a[9], 9);
}

TEST(SmallVector, DestroysElements) {
  static int live = 0;
  struct Probe {
    Probe() { ++live; }
    Probe(const Probe&) { ++live; }
    Probe(Probe&&) noexcept { ++live; }
    ~Probe() { --live; }
  };
  {
    SmallVector<Probe, 2> v;
    for (int i = 0; i < 10; ++i) v.emplace_back();
    EXPECT_EQ(live, 10);
  }
  EXPECT_EQ(live, 0);
}

TEST(SmallVector, IterationMatchesIndexing) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 45);
}

// --- RNG --------------------------------------------------------------------------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Xoshiro, FloatInUnitInterval) {
  Xoshiro256 r(7);
  for (int i = 0; i < 1000; ++i) {
    float f = r.next_float();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(Xoshiro, NextBelowInRange) {
  Xoshiro256 r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

// --- env --------------------------------------------------------------------------

TEST(Env, ParsesIntsAndBools) {
  ::setenv("SMPSS_TEST_INT", "42", 1);
  ::setenv("SMPSS_TEST_BOOL1", "true", 1);
  ::setenv("SMPSS_TEST_BOOL0", "off", 1);
  ::setenv("SMPSS_TEST_JUNK", "zzz", 1);
  ::setenv("SMPSS_TEST_TRAILING", "4x", 1);
  EXPECT_EQ(env_int("SMPSS_TEST_INT").value(), 42);
  EXPECT_FALSE(env_int("SMPSS_TEST_TRAILING").has_value());
  EXPECT_TRUE(env_bool("SMPSS_TEST_BOOL1").value());
  EXPECT_FALSE(env_bool("SMPSS_TEST_BOOL0").value());
  EXPECT_FALSE(env_bool("SMPSS_TEST_JUNK").has_value());
  EXPECT_FALSE(env_int("SMPSS_TEST_MISSING_XYZ").has_value());
  ::unsetenv("SMPSS_TEST_INT");
  ::unsetenv("SMPSS_TEST_BOOL1");
  ::unsetenv("SMPSS_TEST_BOOL0");
  ::unsetenv("SMPSS_TEST_JUNK");
  ::unsetenv("SMPSS_TEST_TRAILING");
}

// --- spin primitives -----------------------------------------------------------------

TEST(SpinLock, MutualExclusion) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SpinLock, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// --- timing ----------------------------------------------------------------------------

TEST(Timing, Monotonic) {
  auto a = now_ns();
  auto b = now_ns();
  EXPECT_LE(a, b);
}

TEST(Timing, ScopedTimerAccumulates) {
  double sink = 0.0;
  { ScopedTimer t(sink); }
  EXPECT_GE(sink, 0.0);
}

// --- affinity ---------------------------------------------------------------------------

TEST(Affinity, HardwareConcurrencyPositive) {
  EXPECT_GE(hardware_concurrency(), 1u);
}

// --- thread pool -------------------------------------------------------------------------

TEST(ThreadPool, RunsOnAllThreads) {
  ThreadPool pool(4);
  std::vector<int> hits(4, 0);
  pool.run([&](unsigned tid) { hits[tid] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 4);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.run([&](unsigned) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(8);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round)
    pool.run([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 50 * 8);
}

// --- overlap-safe copy (the data-movement primitive) ---------------------------

TEST(MemCopy, RangesOverlapTruthTable) {
  char buf[64];
  EXPECT_TRUE(ranges_overlap(buf, 16, buf, 16));        // identical
  EXPECT_TRUE(ranges_overlap(buf, 16, buf + 8, 16));    // partial, forward
  EXPECT_TRUE(ranges_overlap(buf + 8, 16, buf, 16));    // partial, backward
  EXPECT_TRUE(ranges_overlap(buf, 32, buf + 8, 8));     // containment
  EXPECT_FALSE(ranges_overlap(buf, 16, buf + 16, 16));  // adjacent
  EXPECT_FALSE(ranges_overlap(buf, 8, buf + 32, 8));    // disjoint
  EXPECT_FALSE(ranges_overlap(buf, 0, buf, 16));        // empty range
}

TEST(MemCopy, SafeCopyHandlesOverlapBothDirections) {
  // Regression for the close-node inherit copies (runtime.cpp) and the
  // shared-segment publish/fetch path: a memcpy here corrupted data when a
  // transfer's src and dst ranges aliased. safe_copy must behave like the
  // sequential byte-at-a-time oracle in both shift directions.
  std::vector<unsigned char> init(64);
  for (std::size_t i = 0; i < init.size(); ++i)
    init[i] = static_cast<unsigned char>(i);

  // Forward shift: dst overlaps the tail of src.
  std::vector<unsigned char> fwd = init;
  safe_copy(fwd.data() + 8, fwd.data(), 32);
  for (std::size_t i = 0; i < 32; ++i)
    ASSERT_EQ(fwd[8 + i], init[i]) << "forward-shift byte " << i;

  // Backward shift: dst overlaps the head of src.
  std::vector<unsigned char> bwd = init;
  safe_copy(bwd.data(), bwd.data() + 8, 32);
  for (std::size_t i = 0; i < 32; ++i)
    ASSERT_EQ(bwd[i], init[8 + i]) << "backward-shift byte " << i;

  // Fully disjoint stays a plain copy.
  std::vector<unsigned char> dis = init;
  safe_copy(dis.data() + 32, dis.data(), 16);
  for (std::size_t i = 0; i < 16; ++i) ASSERT_EQ(dis[32 + i], init[i]);
}

TEST(ThreadPool, ParallelSumCorrect) {
  ThreadPool pool(6);
  std::vector<long> partial(6, 0);
  constexpr long kN = 600000;
  pool.run([&](unsigned tid) {
    long s = 0;
    for (long i = static_cast<long>(tid); i < kN; i += 6) s += i;
    partial[tid] = s;
  });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), 0L),
            kN * (kN - 1) / 2);
}

}  // namespace
}  // namespace smpss
