// Pooled task-lifecycle tests: churn far more tasks than the pool caches so
// every block is recycled many times, across submitter and retirer threads,
// and assert that nothing about task identity or accounting leaks between
// tenancies — trace/graph ids stay unique (identity rests on the monotonic
// seq, not the recycled storage), stats counters stay exact, and the
// nested-mode variant exercises the remote-free path under TSan/ASan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "runtime/runtime.hpp"

namespace smpss {
namespace {

constexpr int kChurnTasks = 20000;

TEST(PoolLifecycle, ChurnKeepsTraceAndGraphIdsUnique) {
  Config cfg;
  cfg.num_threads = 4;
  cfg.pool_cache = 8;     // tiny cache: force heavy block reuse
  cfg.task_window = 64;   // small window: blocks recycle while spawning
  cfg.tracing = true;
  cfg.record_graph = true;
  Runtime rt(cfg);

  std::vector<long> lanes(16, 0);
  for (int i = 0; i < kChurnTasks; ++i)
    rt.spawn([](long* p) { *p += 1; }, inout(&lanes[i % 16]));
  rt.barrier();
  for (long v : lanes) EXPECT_EQ(v, kChurnTasks / 16);

  auto s = rt.stats();
  EXPECT_EQ(s.tasks_spawned, static_cast<std::uint64_t>(kChurnTasks));
  EXPECT_EQ(s.tasks_executed, static_cast<std::uint64_t>(kChurnTasks));
  EXPECT_GT(s.pool_hits, 0u) << "the pool never served from a free list";
  // Reuse really happened: far fewer slab mallocs than tasks would imply
  // without recycling (the pool never returns blocks to the OS, so slab
  // count is bounded by peak live tasks, which the window bounds).
  EXPECT_LT(s.pool_slabs * 64, static_cast<std::uint64_t>(kChurnTasks));

  // Trace events and graph nodes: one per task, ids unique across reuse.
  const auto events = rt.tracer().collect();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kChurnTasks));
  std::set<std::uint64_t> seqs;
  for (const auto& e : events) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(kChurnTasks))
      << "recycled TaskNodes aliased trace ids";
  const auto& nodes = rt.graph_recorder().nodes();
  ASSERT_EQ(nodes.size(), static_cast<std::size_t>(kChurnTasks));
  std::set<std::uint64_t> node_seqs;
  for (const auto& n : nodes) node_seqs.insert(n.seq);
  EXPECT_EQ(node_seqs.size(), static_cast<std::size_t>(kChurnTasks))
      << "recycled TaskNodes aliased graph node ids";
}

TEST(PoolLifecycle, NestedChurnAcrossWorkersStaysExact) {
  // Generators on distinct workers spawn children concurrently: blocks are
  // allocated on one thread's slot and retired (remote-freed) on others.
  // Run with SMPSS_NESTED=1 under TSan/ASan in CI; the assertions here hold
  // in every configuration.
  Config cfg;
  cfg.nested_tasks = true;
  cfg.num_threads = 4;
  cfg.pool_cache = 8;
  cfg.task_window = 128;
  Runtime rt(cfg);

  constexpr int kGenerators = 3;
  constexpr int kChildren = 3000;
  std::vector<std::vector<long>> lanes(kGenerators);
  for (auto& l : lanes) l.assign(8, 0);
  for (int g = 0; g < kGenerators; ++g) {
    rt.spawn(
        [&rt](long* lane0) {
          for (int i = 0; i < kChildren; ++i)
            rt.spawn([](long* q) { *q += 1; }, smpss::inout(lane0 + (i % 8)));
          rt.taskwait();
        },
        smpss::inout(lanes[static_cast<std::size_t>(g)].data(), 8));
  }
  rt.barrier();
  for (const auto& l : lanes)
    for (long v : l) EXPECT_EQ(v, kChildren / 8);

  auto s = rt.stats();
  EXPECT_EQ(s.tasks_spawned,
            static_cast<std::uint64_t>(kGenerators) * (kChildren + 1));
  EXPECT_EQ(s.tasks_executed, s.tasks_spawned);
  EXPECT_EQ(s.tasks_nested,
            static_cast<std::uint64_t>(kGenerators) * kChildren);
  EXPECT_GT(s.pool_hits, 0u);
}

TEST(PoolLifecycle, LargeClosuresRideThePoolOrHeapCorrectly) {
  // Capture blobs straddling the inline buffer (112 B), the pooled closure
  // class (256 B), and the heap fallback — every size must execute with its
  // payload intact after heavy reuse.
  Config cfg;
  cfg.num_threads = 2;
  cfg.pool_cache = 4;
  Runtime rt(cfg);

  struct Blob96 { unsigned char b[96]; };
  struct Blob192 { unsigned char b[192]; };
  struct Blob512 { unsigned char b[512]; };
  long sum96 = 0, sum192 = 0, sum512 = 0;
  constexpr int kRounds = 800;
  for (int i = 0; i < kRounds; ++i) {
    Blob96 a{};
    a.b[95] = static_cast<unsigned char>(i & 0x3f);
    rt.spawn([a](long* s) { *s += a.b[95]; }, inout(&sum96));
    Blob192 b{};
    b.b[191] = static_cast<unsigned char>(i & 0x3f);
    rt.spawn([b](long* s) { *s += b.b[191]; }, inout(&sum192));
    Blob512 c{};
    c.b[511] = static_cast<unsigned char>(i & 0x3f);
    rt.spawn([c](long* s) { *s += c.b[511]; }, inout(&sum512));
  }
  rt.barrier();
  long expect = 0;
  for (int i = 0; i < kRounds; ++i) expect += i & 0x3f;
  EXPECT_EQ(sum96, expect);
  EXPECT_EQ(sum192, expect);
  EXPECT_EQ(sum512, expect);
}

}  // namespace
}  // namespace smpss
