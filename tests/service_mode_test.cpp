// Service mode: concurrent client streams against the sequential oracle,
// future/callback exactly-once semantics, drain()/close() guarantees (no
// leaked tasks, callbacks complete before close returns), per-stream stats
// splits, the JSON exporter, and graceful whole-runtime shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "patterns/driver.hpp"
#include "patterns/oracle.hpp"
#include "runtime/runtime.hpp"

namespace smpss {
namespace {

using patterns::LowerMode;
using patterns::PatternImage;
using patterns::PatternKind;
using patterns::PatternSpec;

Config service_config(unsigned threads = 4) {
  Config cfg;
  cfg.num_threads = threads;
  cfg.nested_tasks = true;  // streams are concurrent submitters
  return cfg;
}

PatternSpec stream_spec(PatternKind kind, std::uint64_t seed) {
  PatternSpec s;
  s.kind = kind;
  s.width = 8;
  s.steps = 12;
  s.radix = 3;
  s.period = 3;
  s.seed = seed;
  return s;
}

::testing::AssertionResult images_equal(const PatternImage& got,
                                        const PatternImage& want) {
  if (got == want) return ::testing::AssertionSuccess();
  for (long f = 0; f < want.nfields; ++f)
    for (long p = 0; p < want.width; ++p)
      if (got.at(f, p) != want.at(f, p)) {
        std::ostringstream os;
        os << "first mismatch at row " << f << " point " << p << ": got 0x"
           << std::hex << got.at(f, p) << " want 0x" << want.at(f, p);
        return ::testing::AssertionFailure() << os.str();
      }
  return ::testing::AssertionFailure() << "image shapes differ";
}

// N client threads, each driving its own stream with its own pattern (its
// own image — independent graphs multiplexed onto one runtime), racing each
// other through the concurrent analyzers and the admission queue. Every final
// image must be bit-identical to the sequential oracle.
TEST(ServiceMode, MultiStreamConformance) {
  const PatternKind kinds[] = {PatternKind::Chain, PatternKind::Stencil1D,
                               PatternKind::Fft, PatternKind::AllToAll};
  for (LowerMode mode : {LowerMode::Address, LowerMode::Region}) {
    Runtime rt(service_config());
    TaskType point = rt.register_task_type("service_point");
    constexpr int kStreams = 4;
    std::vector<PatternSpec> specs;
    std::vector<PatternImage> imgs;
    std::vector<StreamHandle> streams;
    for (int i = 0; i < kStreams; ++i) {
      specs.push_back(stream_spec(kinds[i], 0xBEEF + i));
      imgs.push_back(
          patterns::make_initial_image(specs[i],
                                       patterns::default_fields(specs[i])));
      streams.push_back(rt.open_stream(
          {.name = "client-" + std::to_string(i),
           .weight = static_cast<std::uint32_t>(1 + i % 2),
           .task_window = i % 2 == 0 ? 0u : 16u}));
    }
    std::vector<std::thread> clients;
    for (int i = 0; i < kStreams; ++i)
      clients.emplace_back([&, i] {
        patterns::submit_pattern_stream(streams[i], point, specs[i], imgs[i],
                                        mode);
        streams[i].drain();
      });
    for (auto& th : clients) th.join();
    // Drains cover retirement; the realignment of renamed data back into
    // the images is barrier()'s job (main thread, after the clients).
    rt.barrier();
    for (int i = 0; i < kStreams; ++i) {
      const PatternImage expect =
          patterns::run_oracle(specs[i], imgs[i].nfields);
      ASSERT_TRUE(images_equal(imgs[i], expect))
          << "stream " << i << " mode " << patterns::to_string(mode) << "\n  "
          << specs[i].describe();
      EXPECT_EQ(streams[i].state()->submitted.load(),
                static_cast<std::uint64_t>(specs[i].total_tasks()));
      EXPECT_EQ(streams[i].state()->retired.load(),
                streams[i].state()->submitted.load());
    }
  }
}

TEST(ServiceMode, FuturesCompleteExactlyOnce) {
  Runtime rt(service_config());
  StreamHandle s = rt.open_stream({.name = "fut"});
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> fired(kTasks);
  std::vector<int> cells(kTasks, 0);
  std::vector<TaskFuture> futs;
  futs.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i)
    futs.push_back(s.submit([](int* c) { *c = 7; }, out(&cells[i])));
  // Arm half the callbacks immediately (they race completion: some run on
  // the retiring worker, some inline in then()); wait() the rest first and
  // install after ready — the pure inline path.
  for (int i = 0; i < kTasks; i += 2)
    futs[i].then([&fired, i] { fired[i].fetch_add(1); });
  for (int i = 1; i < kTasks; i += 2) {
    futs[i].wait();
    ASSERT_TRUE(futs[i].ready());
    futs[i].then([&fired, i] { fired[i].fetch_add(1); });
    // Installed after completion: ran inline, synchronously.
    ASSERT_EQ(fired[i].load(), 1) << i;
  }
  s.drain();
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(fired[i].load(), 1) << "callback count for task " << i;
    ASSERT_EQ(cells[i], 7) << i;
  }
  // wait() after retire returns immediately.
  for (auto& f : futs) f.wait();
}

// Client threads own no ready-list slot, so TaskFuture::wait() there only
// sleeps on the runtime's gate until the retiring worker fulfills the
// future. Each client submits to its own stream in small batches and waits
// on every future, some already done and some not; half carry a callback
// armed before the wait.
TEST(ServiceMode, ClientThreadsWaitOnTheirOwnFutures) {
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Runtime rt(service_config(threads));
    constexpr int kClients = 2, kTasks = 240, kBatch = 8;
    std::vector<int> cells(kClients * kTasks, 0);
    std::vector<std::atomic<int>> fired(kClients * kTasks);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        StreamHandle s = rt.open_stream({.name = "client" + std::to_string(c)});
        for (int b = 0; b < kTasks; b += kBatch) {
          std::vector<TaskFuture> futs;
          for (int i = b; i < b + kBatch; ++i) {
            const int k = c * kTasks + i;
            futs.push_back(
                s.submit([k](int* cell) { *cell = k + 1; }, out(&cells[k])));
            if (i % 2 == 0) futs.back().then([&fired, k] { fired[k]++; });
          }
          for (int i = b; i < b + kBatch; ++i) {
            const int k = c * kTasks + i;
            futs[i - b].wait();
            EXPECT_TRUE(futs[i - b].ready()) << k;
            EXPECT_EQ(cells[k], k + 1) << k;
            EXPECT_EQ(fired[k].load(), i % 2 == 0 ? 1 : 0) << k;
          }
        }
      });
    for (std::thread& t : clients) t.join();
    for (int k = 0; k < kClients * kTasks; ++k) {
      EXPECT_EQ(cells[k], k + 1) << k;
      EXPECT_EQ(fired[k].load(), k % 2 == 0 ? 1 : 0) << k;
    }
    EXPECT_EQ(rt.live_tasks(), 0u);
  }
}

TEST(ServiceMode, CallbacksCompleteBeforeCloseReturns) {
  // close() (and drain()) returning implies every callback already ran:
  // retire fulfills the future before the stream's live count drops. A
  // client that frees callback-captured state right after close() must be
  // safe — this is the "callbacks never run on a destroyed stream" contract.
  for (int round = 0; round < 20; ++round) {
    Runtime rt(service_config(2));
    auto* counter = new std::atomic<int>(0);
    int cell = 0;
    {
      StreamHandle s = rt.open_stream({.name = "cb"});
      for (int i = 0; i < 50; ++i)
        s.submit([](int* c) { ++*c; }, inout(&cell))
            .then([counter] { counter->fetch_add(1); });
      s.close();
      ASSERT_EQ(counter->load(), 50);
    }
    ASSERT_EQ(cell, 50);
    delete counter;  // safe: no callback can still be in flight
  }
}

TEST(ServiceMode, DrainLeavesNoLeakedTasks) {
  Runtime rt(service_config());
  StreamHandle a = rt.open_stream({.name = "a"});
  StreamHandle b = rt.open_stream({.name = "b", .task_window = 8});
  long cells[2] = {0, 0};
  std::thread ta([&] {
    for (int i = 0; i < 400; ++i)
      a.post([](long* c) { *c += 1; }, inout(&cells[0]));
    a.drain();
  });
  std::thread tb([&] {
    for (int i = 0; i < 400; ++i)
      b.post([](long* c) { *c += 1; }, inout(&cells[1]));
    b.drain();
  });
  ta.join();
  tb.join();
  // Both drains returned with submissions racing each other: every admitted
  // task retired, nothing leaked into the window or the pool.
  EXPECT_EQ(a.state()->live.load(), 0);
  EXPECT_EQ(b.state()->live.load(), 0);
  EXPECT_EQ(a.state()->submitted.load(), a.state()->retired.load());
  EXPECT_EQ(b.state()->submitted.load(), b.state()->retired.load());
  EXPECT_EQ(rt.live_tasks(), 0u);
  rt.barrier();
  EXPECT_EQ(cells[0], 400);
  EXPECT_EQ(cells[1], 400);
  const StatsSnapshot st = rt.stats();
  EXPECT_EQ(st.tasks_spawned, st.tasks_executed);
  EXPECT_EQ(st.stream_submitted, 800u);
  EXPECT_EQ(st.stream_retired, 800u);
}

TEST(ServiceMode, PerStreamStatsSplit) {
  Runtime rt(service_config(2));
  StreamHandle a = rt.open_stream({.name = "alpha"});
  StreamHandle b = rt.open_stream({.name = "beta"});
  double x = 0, y = 0;
  for (int i = 0; i < 30; ++i) a.post([](double* p) { *p += 1; }, inout(&x));
  for (int i = 0; i < 70; ++i) b.post([](double* p) { *p += 1; }, inout(&y));
  a.drain();
  b.drain();
  const StatsSnapshot st = rt.stats();
  ASSERT_EQ(st.streams.size(), 2u);
  EXPECT_EQ(st.streams[0].name, "alpha");
  EXPECT_EQ(st.streams[0].submitted, 30u);
  EXPECT_EQ(st.streams[0].retired, 30u);
  EXPECT_EQ(st.streams[1].name, "beta");
  EXPECT_EQ(st.streams[1].submitted, 70u);
  EXPECT_EQ(st.streams[1].retired, 70u);
  EXPECT_EQ(st.stream_submitted, 100u);
  // Latency was recorded for every retired stream task.
  EXPECT_EQ(st.service_latency_count, 100u);
  EXPECT_GT(st.service_p99_ns, 0u);
  EXPECT_GE(st.service_p99_ns, st.service_p50_ns);
}

TEST(ServiceMode, StatsJsonExporterWritesLines) {
  const std::string path =
      ::testing::TempDir() + "smpss_stats_export_test.jsonl";
  std::remove(path.c_str());
  {
    Config cfg = service_config(2);
    cfg.stats_period_ms = 20;
    cfg.stats_path = path;
    Runtime rt(cfg);
    StreamHandle s = rt.open_stream({.name = "exported \"q\""});
    long cell = 0;
    for (int i = 0; i < 100; ++i)
      s.post([](long* c) { *c += 1; }, inout(&cell));
    s.drain();
  }  // destructor emits the final line and joins the exporter
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string line, last;
  std::size_t lines = 0;
  while (std::getline(in, line))
    if (!line.empty()) {
      last = line;
      ++lines;
    }
  ASSERT_GE(lines, 1u);  // final-line-at-shutdown guarantees >= 1
  // Spot-check the shape: totals, the stream row, escaped name, percentiles.
  EXPECT_NE(last.find("\"tasks_executed\":"), std::string::npos) << last;
  EXPECT_NE(last.find("\"window_occupancy\":"), std::string::npos) << last;
  EXPECT_NE(last.find("\"streams\":[{"), std::string::npos) << last;
  EXPECT_NE(last.find("\"name\":\"exported \\\"q\\\"\""), std::string::npos)
      << last;
  EXPECT_NE(last.find("\"p99_ns\":"), std::string::npos) << last;
  EXPECT_NE(last.find("\"retired\":100"), std::string::npos) << last;
  std::remove(path.c_str());
}

// The exporter thread calls stats() every millisecond while the main thread
// counts barriers and region accesses: every counter must be a cell that a
// concurrent reader may load (a plain field is a data race ThreadSanitizer
// reports). The Config is built here, not from the environment, so both
// submission modes run whatever SMPSS_NESTED says.
TEST(ServiceMode, StatsExporterReadsCountersWithoutRaces) {
  constexpr int kRounds = 2000;
  const std::string path =
      ::testing::TempDir() + "smpss_stats_race_test.jsonl";
  for (const bool nested : {false, true}) {
    SCOPED_TRACE(nested ? "nested_tasks" : "single submitter");
    std::remove(path.c_str());
    Config cfg;
    cfg.num_threads = 2;
    cfg.nested_tasks = nested;
    cfg.stats_period_ms = 1;
    cfg.stats_path = path;
    Runtime rt(cfg);
    long cell = 0;
    std::vector<int> arr(8, 0);
    for (int r = 0; r < kRounds; ++r) {
      rt.spawn(
          [](long* c, int* a) {
            *c += 1;
            a[0] += 1;
          },
          inout(&cell), inout(arr.data(), Region{{Bound::closed(0, 7)}}));
      rt.barrier();
    }
    EXPECT_EQ(cell, kRounds);
    EXPECT_EQ(arr[0], kRounds);
    const StatsSnapshot st = rt.stats();
    EXPECT_EQ(st.barriers, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(st.region_accesses, static_cast<std::uint64_t>(kRounds));
  }
  std::remove(path.c_str());
}

TEST(ServiceMode, GracefulShutdown) {
  Runtime rt(service_config());
  StreamHandle a = rt.open_stream({.name = "a"});
  StreamHandle b = rt.open_stream({.name = "b"});
  EXPECT_EQ(rt.open_stream_count(), 2u);
  long cell = 0;
  std::thread client([&] {
    for (int i = 0; i < 300; ++i)
      a.post([](long* c) { *c += 1; }, inout(&cell));
  });
  client.join();
  rt.shutdown_streams();
  EXPECT_EQ(rt.open_stream_count(), 0u);
  EXPECT_FALSE(a.open());
  EXPECT_FALSE(b.open());
  EXPECT_TRUE(a.valid());  // handles stay valid, submissions are refused
  EXPECT_EQ(a.state()->retired.load(), 300u);
  rt.barrier();
  EXPECT_EQ(cell, 300);
  // Idempotent: closing again (and the handle destructors later) is a no-op.
  rt.shutdown_streams();
  a.close();
}

TEST(ServiceMode, StreamHandleDestructorClosesAndDrains) {
  Runtime rt(service_config(2));
  long cell = 0;
  {
    StreamHandle s = rt.open_stream();
    EXPECT_EQ(s.name(), "stream-0");  // default naming
    for (int i = 0; i < 64; ++i)
      s.post([](long* c) { *c += 1; }, inout(&cell));
  }  // ~StreamHandle: drain + close
  EXPECT_EQ(rt.open_stream_count(), 0u);
  rt.barrier();
  EXPECT_EQ(cell, 64);
}

TEST(ServiceMode, OpenStreamRequiresNestedTasks) {
  Config cfg;
  cfg.num_threads = 2;
  cfg.nested_tasks = false;
  Runtime rt(cfg);
  EXPECT_DEATH(rt.open_stream(), "nested_tasks");
}

}  // namespace
}  // namespace smpss
