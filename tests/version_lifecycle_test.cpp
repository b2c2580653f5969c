// Version-chain lifecycle behaviors: storage reuse vs. renaming decisions,
// realignment (copy-back) accounting, wait_on with rename chains, size
// growth on re-registration, rename-pool reclamation ordering, and the
// version block itself: its counter word across a recycled tenancy and its
// hot line.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/cache.hpp"
#include "common/slab_pool.hpp"
#include "dep/renaming.hpp"
#include "dep/version.hpp"
#include "runtime/runtime.hpp"

namespace smpss {
namespace {

Config one_thread() {
  Config c;
  c.num_threads = 1;
  return c;
}

TEST(VersionLifecycle, OutAfterOutInPlaceWhenQuiescent) {
  Runtime rt(one_thread());
  int x = 0;
  // Each out sees the previous version produced with zero readers (single
  // thread, tasks drain at the window/barrier): in-place reuse, no renames.
  for (int i = 0; i < 20; ++i) {
    rt.spawn([i](int* p) { *p = i; }, out(&x));
    rt.barrier();  // force production before the next write
  }
  EXPECT_EQ(x, 19);
  EXPECT_EQ(rt.stats().renames, 0u);
}

TEST(VersionLifecycle, WawOnUnproducedVersionRenames) {
  Config cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  std::atomic<bool> second_spawned{false};
  int x = 0;
  // The first writer cannot finish before the second out is spawned, so
  // that out lands while the first version is unproduced -> fresh storage,
  // no edge, both eventually retire. The deadline only bounds a hang.
  rt.spawn(
      [&second_spawned](int* p) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!second_spawned.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        *p = 1;
      },
      out(&x));
  rt.spawn([](int* p) { *p = 2; }, out(&x));
  second_spawned.store(true, std::memory_order_release);
  rt.barrier();
  EXPECT_EQ(x, 2);  // program order wins: the latest version is realigned
  EXPECT_GE(rt.stats().renames, 1u);
  EXPECT_EQ(rt.stats().waw_edges, 0u);
}

TEST(VersionLifecycle, CopybackBytesAccounted) {
  Runtime rt(one_thread());
  std::vector<char> buf(4096, 0);
  int r = 0;
  rt.spawn([](const char* p, int* o) { *o = p[0]; }, in(buf.data(), 4096),
           out(&r));
  rt.spawn([](char* p) { p[0] = 7; }, out(buf.data(), 4096));  // renamed
  rt.barrier();  // realignment copies the renamed version back
  EXPECT_EQ(buf[0], 7);
  EXPECT_GE(rt.stats().copyback_bytes, 4096u);
}

TEST(VersionLifecycle, NoCopybackWhenLatestLivesInUserStorage) {
  Runtime rt(one_thread());
  std::vector<char> buf(4096, 0);
  rt.spawn([](char* p) { p[0] = 1; }, out(buf.data(), 4096));
  rt.barrier();
  EXPECT_EQ(rt.stats().copyback_bytes, 0u);
}

TEST(VersionLifecycle, WaitOnChainOfRenames) {
  Config cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  int x = 0;
  std::vector<int> observers(16);
  // Interleave reads and writes so several renamed versions exist, then
  // wait_on must surface the *latest* value.
  for (int i = 0; i < 16; ++i) {
    rt.spawn([](const int* p, int* o) { *o = *p; }, in(&x), out(&observers[i]));
    rt.spawn([i](int* p) { *p = i + 1; }, out(&x));
  }
  rt.wait_on(&x);
  EXPECT_EQ(x, 16);
  rt.barrier();
  // Observer i saw the value before write i: 0..15 in order.
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(observers[static_cast<std::size_t>(i)], i);
}

TEST(VersionLifecycle, SizeGrowsToLargestAccess) {
  Runtime rt(one_thread());
  std::vector<char> buf(256, 0);
  int r = 0;
  // First access registers 64 bytes, later ones 256; realignment must cover
  // the full 256 bytes of the final version.
  rt.spawn([](const char* p, int* o) { *o = p[0]; }, in(buf.data(), 64),
           out(&r));
  rt.spawn([](char* p) { p[200] = 9; p[0] = 1; }, out(buf.data(), 256));
  rt.barrier();
  EXPECT_EQ(buf[200], 9);
  EXPECT_EQ(buf[0], 1);
}

TEST(VersionLifecycle, RenamedStorageDrainsToZeroAfterEveryBarrier) {
  Config cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  std::vector<char> buf(8192, 0);
  int sink = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 32; ++i) {
      rt.spawn([](const char* p, int* s) { *s += p[0]; },
               in(buf.data(), buf.size()), inout(&sink));
      rt.spawn([](char* p) { p[0] = 1; }, out(buf.data(), buf.size()));
    }
    rt.barrier();
    ASSERT_EQ(rt.rename_pool().current_bytes(), 0u) << "round " << round;
  }
  EXPECT_GT(rt.stats().renames, 0u);
}

TEST(VersionLifecycle, InterleavedObjectsDontCrossTalk) {
  Config cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  constexpr int kObjs = 16;
  std::vector<std::vector<int>> objs(kObjs, std::vector<int>(64, 0));
  std::vector<int> finals(kObjs, 0);
  for (int step = 0; step < 10; ++step)
    for (int o = 0; o < kObjs; ++o)
      rt.spawn(
          [o, step](int* p) {
            p[0] = p[0] * 2 + o + step;
          },
          inout(objs[static_cast<std::size_t>(o)].data(), 64));
  for (int o = 0; o < kObjs; ++o)
    rt.spawn([](const int* p, int* f) { *f = p[0]; },
             in(objs[static_cast<std::size_t>(o)].data(), 64), out(&finals[o]));
  rt.barrier();
  for (int o = 0; o < kObjs; ++o) {
    int expect = 0;
    for (int step = 0; step < 10; ++step) expect = expect * 2 + o + step;
    EXPECT_EQ(finals[static_cast<std::size_t>(o)], expect) << "object " << o;
  }
}

// One owner slot refilled one block at a time: a freed block is the next
// one the slot hands out, so a test can land a new tenancy on it.
SlabPool one_block_pool() {
  return SlabPool(Version::block_bytes(), alignof(std::max_align_t),
                  /*owner_slots=*/1, /*cache_blocks=*/1);
}

TEST(VersionBlock, PhantomPinAcrossRevivalIsNetZero) {
  SlabPool vpool = one_block_pool();
  RenamePool rp(1u << 20);
  DataEntry entry;
  int user = 0;
  Version* old = Version::create(vpool, 0, &entry, &user, sizeof user,
                                 /*renamed=*/false, /*producer=*/nullptr);
  old->release(rp);  // last ref: the block dies and goes back to the pool

  // A reader that loaded `old` as the chain head before it died pins it now:
  // the registration lands on the dead block.
  old->register_reader();

  // The next version takes the same block while that pin is in flight.
  void* buf = rp.allocate(64);
  Version* v = Version::create(vpool, 0, &entry, buf, 64, /*renamed=*/true,
                               /*producer=*/nullptr);
  ASSERT_EQ(static_cast<void*>(v), static_cast<void*>(old));

  // The pin fails validation and aborts. The new tenancy must be left with
  // its own latest token only.
  old->abort_reader_registration(rp);
  ASSERT_EQ(v->readers_pending(), 0);
  ASSERT_EQ(rp.current_bytes(), 64u) << "the version was freed early";

  // Its last release frees it exactly once: storage back to the rename
  // pool, the block back to the slot (handed out again next), and not a
  // second time (the block after it is a different one).
  v->release(rp);
  EXPECT_EQ(rp.current_bytes(), 0u);
  void* again = vpool.allocate(0);
  EXPECT_EQ(again, static_cast<void*>(reinterpret_cast<char*>(v) -
                                      Version::kPrefixBytes));
  void* next = vpool.allocate(0);
  EXPECT_NE(next, again);
  vpool.deallocate(next);
  vpool.deallocate(again);
}

TEST(VersionBlock, HotFieldsShareTheBlocksFirstLine) {
  // Pool blocks start on a line boundary, so the counter cell's offset in
  // its line is its offset in the block.
  SlabPool vpool = one_block_pool();
  RenamePool rp(1u << 20);
  DataEntry entry;
  int user = 0;
  Version* v = Version::create(vpool, 0, &entry, &user, sizeof user,
                               /*renamed=*/false, /*producer=*/nullptr);
  const auto cell =
      reinterpret_cast<std::uintptr_t>(v) - Version::kPrefixBytes;
  EXPECT_LE(cell % kCacheLineSize + Version::hot_bytes(), kCacheLineSize);
  v->release(rp);
}

}  // namespace
}  // namespace smpss
