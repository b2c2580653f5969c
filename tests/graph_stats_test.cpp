// Graph-structure analysis: critical path, width, roots/leaves, per-type
// counts, predecessor queries — on hand-built graphs and runtime-recorded
// ones.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_recorder.hpp"
#include "graph/graph_stats.hpp"
#include "runtime/runtime.hpp"

namespace smpss {
namespace {

GraphRecorder make_chain(int n) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= n; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  for (int i = 1; i < n; ++i)
    rec.record_edge(static_cast<std::uint64_t>(i),
                    static_cast<std::uint64_t>(i + 1), EdgeKind::True);
  return rec;
}

TEST(GraphStats, Chain) {
  auto rec = make_chain(10);
  auto s = analyze_graph(rec);
  EXPECT_EQ(s.nodes, 10u);
  EXPECT_EQ(s.edges, 9u);
  EXPECT_EQ(s.roots, 1u);
  EXPECT_EQ(s.leaves, 1u);
  EXPECT_EQ(s.critical_path, 10u);
  EXPECT_EQ(s.max_width, 1u);
  EXPECT_DOUBLE_EQ(s.avg_parallelism, 1.0);
}

TEST(GraphStats, IndependentTasks) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= 8; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  auto s = analyze_graph(rec);
  EXPECT_EQ(s.critical_path, 1u);
  EXPECT_EQ(s.max_width, 8u);
  EXPECT_EQ(s.roots, 8u);
  EXPECT_DOUBLE_EQ(s.avg_parallelism, 8.0);
}

TEST(GraphStats, Diamond) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= 4; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  rec.record_edge(1, 2, EdgeKind::True);
  rec.record_edge(1, 3, EdgeKind::True);
  rec.record_edge(2, 4, EdgeKind::True);
  rec.record_edge(3, 4, EdgeKind::True);
  auto s = analyze_graph(rec);
  EXPECT_EQ(s.critical_path, 3u);
  EXPECT_EQ(s.max_width, 2u);
  EXPECT_EQ(s.roots, 1u);
  EXPECT_EQ(s.leaves, 1u);
}

TEST(GraphStats, PerTypeCounts) {
  GraphRecorder rec;
  rec.set_enabled(true);
  rec.record_node(1, 0);
  rec.record_node(2, 2);
  rec.record_node(3, 2);
  auto s = analyze_graph(rec);
  ASSERT_EQ(s.per_type_counts.size(), 3u);
  EXPECT_EQ(s.per_type_counts[0], 1u);
  EXPECT_EQ(s.per_type_counts[1], 0u);
  EXPECT_EQ(s.per_type_counts[2], 2u);
}

TEST(GraphStats, EmptyGraph) {
  GraphRecorder rec;
  auto s = analyze_graph(rec);
  EXPECT_EQ(s.nodes, 0u);
  EXPECT_EQ(s.critical_path, 0u);
}

TEST(GraphStats, PredecessorsAndAncestors) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= 5; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  rec.record_edge(1, 3, EdgeKind::True);
  rec.record_edge(2, 3, EdgeKind::True);
  rec.record_edge(3, 5, EdgeKind::True);
  rec.record_edge(4, 5, EdgeKind::True);
  EXPECT_EQ(predecessors_of(rec, 5), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(ancestor_closure(rec, 5), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(predecessors_of(rec, 1).empty());
}

TEST(GraphStats, RecordedRuntimeGraphMatchesSpawnStructure) {
  Config c;
  // One thread: the full static graph is recorded (with workers racing,
  // completed producers leave no edge).
  c.num_threads = 1;
  c.record_graph = true;
  Runtime rt(c);
  // Two independent chains of length 5.
  int x = 0, y = 0;
  for (int i = 0; i < 5; ++i) rt.spawn([](int* p) { *p += 1; }, inout(&x));
  for (int i = 0; i < 5; ++i) rt.spawn([](int* p) { *p += 1; }, inout(&y));
  rt.barrier();
  auto s = analyze_graph(rt.graph_recorder());
  EXPECT_EQ(s.nodes, 10u);
  EXPECT_EQ(s.edges, 8u);
  EXPECT_EQ(s.critical_path, 5u);
  EXPECT_EQ(s.max_width, 2u);
  EXPECT_EQ(s.roots, 2u);
}

// --- per-worker scheduling counters (StatsSnapshot::workers) -----------------

TEST(RuntimeWorkerStats, SingleThreadChainRowsAreExact) {
  Config c;
  c.num_threads = 1;
  // chain_depth = 0 forces every released successor through the ready lists,
  // where placement stamps its preference (chained tasks bypass
  // enqueue entirely and carry no preference).
  c.chain_depth = 0;
  Runtime rt(c);
  constexpr int kN = 100;
  long x = 0;
  for (int i = 0; i < kN; ++i) rt.spawn([](long* p) { *p += 1; }, inout(&x));
  rt.barrier();
  EXPECT_EQ(x, static_cast<long>(kN));

  auto s = rt.stats();
  ASSERT_EQ(s.workers.size(), 1u);
  const auto& w = s.workers[0];
  EXPECT_EQ(w.executed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(w.steals, 0u);
  EXPECT_EQ(w.chained, 0u);
  // The chain head was spawned from the main thread (no preference, counted
  // neither way); every other task was released by worker 0 and executed by
  // worker 0.
  EXPECT_EQ(w.locality_hits, static_cast<std::uint64_t>(kN) - 1);
  EXPECT_EQ(w.locality_misses, 0u);
  // Aggregates are exactly the row sums (one row here).
  EXPECT_EQ(s.tasks_executed, w.executed);
  EXPECT_EQ(s.steals, w.steals);
  EXPECT_EQ(s.locality_hits, w.locality_hits);
  EXPECT_EQ(s.locality_misses, w.locality_misses);
  EXPECT_EQ(s.idle_ns, w.idle_ns);
  EXPECT_EQ(s.idle_sleeps, w.idle_sleeps);
  EXPECT_EQ(s.acquired_high, w.acquired_high);
  EXPECT_EQ(s.acquired_own, w.acquired_own);
  EXPECT_EQ(s.acquired_main, w.acquired_main);
}

TEST(RuntimeWorkerStats, AggregatesEqualRowSumsAcrossWorkers) {
  Config c;
  c.num_threads = 4;
  Runtime rt(c);
  std::vector<long> sinks(64, 0);
  long chain = 0;
  for (int step = 0; step < 8; ++step) {
    rt.spawn([](long* p) { *p += 1; }, inout(&chain));
    for (auto& v : sinks) rt.spawn([](long* p) { *p += 1; }, inout(&v));
  }
  rt.barrier();
  auto s = rt.stats();
  ASSERT_EQ(s.workers.size(), 4u);
  EXPECT_EQ(s.tasks_executed, 8u * 65u);
  // Every worker-table row: the total is exactly the sum of the rows.
  WorkerStatsRow sum;
  for (const auto& w : s.workers) {
#define ADD_ROW(row, total) sum.row += w.row;
    SMPSS_WORKER_COUNTERS(ADD_ROW)
#undef ADD_ROW
  }
#define EXPECT_TOTAL(row, total) EXPECT_EQ(s.total, sum.row) << #total;
  SMPSS_WORKER_COUNTERS(EXPECT_TOTAL)
#undef EXPECT_TOTAL
}

// A blocked main thread counts its sleeps like a worker: the one task runs
// on the worker, so the barrier finds no ready task and row 0 sleeps.
TEST(RuntimeWorkerStats, MainThreadSleepsCountInRowZero) {
  Config c;
  c.num_threads = 2;
  Runtime rt(c);
  std::atomic<bool> started{false};
  long x = 0;
  rt.spawn(
      [&started](long* p) {
        started.store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        *p = 1;
      },
      out(&x));
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  rt.barrier();
  EXPECT_EQ(x, 1);
  const StatsSnapshot s = rt.stats();
  ASSERT_EQ(s.workers.size(), 2u);
  EXPECT_GE(s.workers[0].idle_sleeps, 1u);
  EXPECT_GT(s.workers[0].idle_ns, 0u);
  EXPECT_EQ(s.workers[0].executed, 0u);
}

TEST(RuntimeWorkerStats, JsonExportsWorkerRowsAndLocality) {
  Config c;
  c.num_threads = 2;
  c.chain_depth = 0;
  Runtime rt(c);
  long chain = 0;
  std::vector<long> flat(16, 0);
  for (long& f : flat) {
    rt.spawn([](long* p) { *p += 1; }, inout(&chain));
    rt.spawn([](long* p) { *p = 1; }, out(&f));
  }
  rt.barrier();
  EXPECT_EQ(chain, 16);

  const std::string json = rt.stats_json();
  EXPECT_NE(json.find("\"workers\":["), std::string::npos);
  EXPECT_NE(json.find("\"locality_hits\":"), std::string::npos);
  EXPECT_NE(json.find("\"locality_misses\":"), std::string::npos);
  EXPECT_NE(json.find("\"idle_ns\":"), std::string::npos);
}

// Every counter-table row (common/counters.hpp) is a key of the JSON line
// and carries the value stats() reports: the submission, dependency and
// worker totals at the top level, each worker counter in the worker's row.
// One thread and a finished barrier keep every counter still between the
// two calls.
TEST(RuntimeWorkerStats, JsonCarriesEveryTableCounter) {
  Config c;
  c.num_threads = 1;
  Runtime rt(c);
  long x = 0;
  long y = 0;
  std::vector<int> arr(16, 0);
  for (int i = 0; i < 4; ++i) {
    rt.spawn([](long* p) { *p += 1; }, inout(&x));
    rt.spawn([](const long* p, long* q) { *q = *p; }, in(&x), out(&y));
    rt.spawn([](long* p) { *p += 1; }, commutative(&y));
    rt.spawn([](int* a) { a[0] += 1; },
             inout(arr.data(), Region{{Bound::closed(0, 7)}}));
  }
  rt.taskwait();
  rt.barrier();
  EXPECT_EQ(x, 4);
  EXPECT_EQ(y, 5);
  EXPECT_EQ(arr[0], 4);

  const StatsSnapshot s = rt.stats();
  const std::string json = rt.stats_json();
  // The workload reaches every scope, so a key paired with the wrong
  // field cannot pass as zero against zero.
  EXPECT_EQ(s.taskwaits, 1u);
  EXPECT_EQ(s.barriers, 1u);
  EXPECT_EQ(s.region_accesses, 4u);
  EXPECT_GT(s.raw_edges, 0u);
  EXPECT_GT(s.groups_opened, 0u);
  EXPECT_EQ(s.tasks_executed, 16u);
  ASSERT_EQ(s.workers.size(), 1u);

  const std::size_t rows_at = json.find("\"workers\":[");
  ASSERT_NE(rows_at, std::string::npos) << json;
  SCOPED_TRACE(json);
  const std::string top = json.substr(0, rows_at);
  const std::string row =
      json.substr(rows_at, json.find(']', rows_at) - rows_at);
  // The number after "key": in `part`, or -1 when the key is missing.
  const auto value_of = [](const std::string& part, const char* key) {
    const std::string k = std::string("\"") + key + "\":";
    const std::size_t at = part.find(k);
    return at == std::string::npos ? -1LL
                                   : std::stoll(part.substr(at + k.size()));
  };
#define EXPECT_KEY(part, key, v) \
  EXPECT_EQ(value_of(part, key), static_cast<long long>(v)) << key;
#define EXPECT_TOP(name) EXPECT_KEY(top, #name, s.name)
#define EXPECT_WORKER(r, total) \
  EXPECT_KEY(top, #total, s.total) EXPECT_KEY(row, #r, s.workers[0].r)
  SMPSS_SUBMIT_COUNTERS(EXPECT_TOP)
  SMPSS_DEP_COUNTERS(EXPECT_TOP)
  SMPSS_WORKER_COUNTERS(EXPECT_WORKER)
#undef EXPECT_KEY
#undef EXPECT_TOP
#undef EXPECT_WORKER
}

}  // namespace
}  // namespace smpss
