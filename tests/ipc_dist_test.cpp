// The multi-process dependency manager (ipc/dist_runtime.hpp) and its
// substrate: shm segments, message rings, process lifecycle, the
// datum-hash shard split, cross-process copy-in/copy-back, and crash
// semantics.
//
// Conformance is differential, like everything else in this repo: every
// family × submission shape × dependency-engine mode runs across 2 (and 3)
// processes and the assembled image must be bit-identical to the
// sequential oracle; the cross-process true-edge multiset must equal the
// generator's intended edges exactly; per-rank accounting rows must sum to
// the coordinator's global totals (including an exact expected count of
// remote fetches derived from the owner hash). The crash tests kill a
// child mid-run and check the stats file gains a parseable partial-run
// marker instead of ending in a torn line.
//
// Everything that forks skips under ThreadSanitizer (children start
// runtime threads, which TSan forbids after fork); the single-process
// sweeps cover the same dataflow there.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ipc/dist_runtime.hpp"
#include "ipc/msg_ring.hpp"
#include "ipc/process_group.hpp"
#include "ipc/shm_segment.hpp"
#include "patterns/driver.hpp"
#include "runtime/runtime.hpp"
#include "sanitizer_util.hpp"
#include "seed_util.hpp"

namespace smpss::ipc {
namespace {

using patterns::AccumMode;
using patterns::all_pattern_kinds;
using patterns::Cell;
using patterns::default_fields;
using patterns::Interval;
using patterns::kMaxIntervals;
using patterns::kPatternKindCount;
using patterns::LowerMode;
using patterns::PatternImage;
using patterns::PatternKind;
using patterns::PatternSpec;
using patterns::run_oracle;
using patterns::run_pattern;
using patterns::RunOptions;
using patterns::RunResult;
using patterns::SubmitShape;

#define SMPSS_REQUIRE_FORK()                                             \
  if (!smpss::testing::fork_backend_supported())                         \
  GTEST_SKIP() << "fork-then-threads is unsupported under TSan; the "    \
                  "single-process conformance sweeps cover this dataflow"

PatternSpec standard_spec(PatternKind kind) {
  PatternSpec s;
  s.kind = kind;
  s.width = kind == PatternKind::Tree ? 16 : 8;
  s.steps = 8;
  s.radix = 3;
  s.period = 3;
  s.seed = 0xD157;
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

// --- the ipc substrate, single-process -----------------------------------------

TEST(IpcPrimitives, ShmSegmentCreateAllocAndInherit) {
  ShmSegment seg = ShmSegment::create(1000);
  ASSERT_TRUE(seg.valid());
  EXPECT_GE(seg.size(), 1000u);
  EXPECT_EQ(seg.size() % 4096, 0u) << "segment size must be page-rounded";

  SegmentAllocator alloc(seg);
  std::uint64_t* a = alloc.alloc<std::uint64_t>(4);
  std::uint64_t* b = alloc.alloc<std::uint64_t>(1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_GE(b, a + 4) << "bump allocations must not overlap";
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a[i], 0u) << "segment not zeroed";
  a[0] = 0xFEEDu;
  *b = 0xBEEFu;
  EXPECT_EQ(a[0], 0xFEEDu);

  // Moved-from segments must not double-unmap.
  ShmSegment moved = std::move(seg);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(seg.valid());
}

TEST(IpcPrimitives, MsgRingIsFifoAndBounded) {
  auto ring = std::make_unique<MsgRing>();
  EXPECT_TRUE(ring->empty());
  IpcMsg m;
  EXPECT_FALSE(ring->try_recv(m));

  // Fill to capacity, refuse the overflow, drain in order.
  for (std::uint64_t i = 0; i < MsgRing::kCapacity; ++i) {
    m = IpcMsg{};
    m.kind = MsgKind::Retire;
    m.a = i;
    ASSERT_TRUE(ring->try_send(m)) << "ring full early at " << i;
  }
  m.a = MsgRing::kCapacity;
  EXPECT_FALSE(ring->try_send(m)) << "ring accepted more than kCapacity";
  for (std::uint64_t i = 0; i < MsgRing::kCapacity; ++i) {
    ASSERT_TRUE(ring->try_recv(m));
    EXPECT_EQ(m.a, i) << "ring is not FIFO";
    EXPECT_EQ(m.kind, MsgKind::Retire);
  }
  EXPECT_TRUE(ring->empty());

  // Freed capacity is reusable (wrap-around).
  for (std::uint64_t i = 0; i < 3 * MsgRing::kCapacity; ++i) {
    m.a = i;
    ASSERT_TRUE(ring->try_send(m));
    ASSERT_TRUE(ring->try_recv(m));
    EXPECT_EQ(m.a, i);
  }
}

TEST(IpcPrimitives, DatumOwnerIsStableInRangeAndCoversRanks) {
  for (unsigned nprocs : {1u, 2u, 3u, 16u}) {
    std::vector<bool> hit(nprocs, false);
    for (long f = 0; f < 4; ++f)
      for (long p = 0; p < 16; ++p) {
        const unsigned o = datum_owner(f, p, nprocs);
        ASSERT_LT(o, nprocs);
        EXPECT_EQ(o, datum_owner(f, p, nprocs));
        hit[o] = true;
      }
    // 64 cells over <= 16 ranks: a shard split that starves a rank outright
    // would make the "multi-process" backend silently single-process.
    for (unsigned r = 0; r < nprocs; ++r)
      EXPECT_TRUE(hit[r]) << "rank " << r << "/" << nprocs << " owns no datum";
  }
  EXPECT_EQ(datum_owner(2, 5, 1), 0u);
}

// --- cross-process conformance -------------------------------------------------

struct DistVariant {
  const char* name;
  void (*tweak)(RunOptions&);
};

void check_dist(const PatternSpec& spec, const DistVariant& v) {
  RunOptions opt;
  opt.cfg.num_threads = 2;
  opt.cfg.procs = 2;
  v.tweak(opt);
  opt.nfields = default_fields(spec);
  const PatternImage expect = run_oracle(spec, opt.nfields);
  const RunResult r = run_pattern(spec, opt);
  ASSERT_TRUE(images_equal(r.image, expect))
      << "variant=" << v.name << "\n  " << spec.describe() << "\n  "
      << opt.describe();
  const std::uint64_t expected_tasks =
      spec.total_tasks() +
      (opt.shape == SubmitShape::NestedSteps
           ? static_cast<std::uint64_t>(spec.steps) * opt.cfg.procs
           : 0);
  EXPECT_EQ(r.stats.tasks_spawned, expected_tasks)
      << "variant=" << v.name << " " << spec.describe();
}

const DistVariant kFlatVariants[] = {
    {"flat", [](RunOptions&) {}},
    {"flat_nested", [](RunOptions& o) { o.cfg.nested_tasks = true; }},
};

const DistVariant kNestedVariants[] = {
    {"nested_steps",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.shape = SubmitShape::NestedSteps;
     }},
};

TEST(DistConformance, FlatTwoProcsAllFamilies) {
  SMPSS_REQUIRE_FORK();
  for (PatternKind kind : all_pattern_kinds()) {
    const PatternSpec spec = standard_spec(kind);
    ASSERT_TRUE(patterns::address_mode_ok(spec)) << spec.describe();
    for (const DistVariant& v : kFlatVariants) check_dist(spec, v);
  }
}

TEST(DistConformance, NestedStepsTwoProcsAllFamilies) {
  SMPSS_REQUIRE_FORK();
  for (PatternKind kind : all_pattern_kinds()) {
    const PatternSpec spec = standard_spec(kind);
    for (const DistVariant& v : kNestedVariants) check_dist(spec, v);
  }
}

TEST(DistConformance, ThreeProcsSingleThreadedRanks) {
  SMPSS_REQUIRE_FORK();
  for (PatternKind kind :
       {PatternKind::Stencil1D, PatternKind::Fft, PatternKind::Spread}) {
    const PatternSpec spec = standard_spec(kind);
    RunOptions opt;
    opt.cfg.num_threads = 1;
    opt.cfg.procs = 3;
    opt.nfields = default_fields(spec);
    const RunResult r = run_pattern(spec, opt);
    ASSERT_TRUE(images_equal(r.image, run_oracle(spec, opt.nfields)))
        << spec.describe();
  }
}

TEST(DistConformance, SingleProcBackendMatchesInProcessRun) {
  // nprocs == 1 takes the distributed code path (segment, slots, retire
  // ring) with no fork: the backend degenerates to the classic runtime and
  // must produce the identical image. (SMPSS_PROCS=1 through run_pattern
  // does not even reach this path — that stays the untouched fast path.)
  for (PatternKind kind : {PatternKind::Chain, PatternKind::Stencil1D,
                           PatternKind::AllToAll}) {
    const PatternSpec spec = standard_spec(kind);
    RunOptions opt;
    opt.cfg.num_threads = 2;
    opt.nfields = default_fields(spec);
    const DistResult d = run_pattern_dist(spec, opt, 1);
    EXPECT_TRUE(d.clean_children);
    EXPECT_EQ(d.total_tasks, spec.total_tasks());
    EXPECT_EQ(d.retires_received, d.total_tasks);
    const RunResult classic = run_pattern(spec, opt);
    ASSERT_TRUE(images_equal(d.image, classic.image)) << spec.describe();
    ASSERT_TRUE(images_equal(d.image, run_oracle(spec, opt.nfields)))
        << spec.describe();
  }
}

// --- cross-process graph fidelity ----------------------------------------------

TEST(DistGraph, TrueEdgeMultisetMatchesOracle) {
  SMPSS_REQUIRE_FORK();
  // Chain exercises the in-place inout shard path; spread intends duplicate
  // edges (its modular stride can name one producer twice); tree has
  // never-written cells the image assembly must pre-seed.
  for (PatternKind kind :
       {PatternKind::Chain, PatternKind::Stencil1D, PatternKind::Fft,
        PatternKind::Tree, PatternKind::Spread, PatternKind::RandomNearest}) {
    const PatternSpec spec = standard_spec(kind);
    for (unsigned nprocs : {2u, 3u}) {
      RunOptions opt;
      opt.cfg.num_threads = 1;  // the deterministic recording window
      opt.cfg.task_window = 1u << 20;
      opt.cfg.record_graph = true;
      opt.nfields = default_fields(spec);
      const DistResult d = run_pattern_dist(spec, opt, nprocs);
      ASSERT_TRUE(d.clean_children) << spec.describe();
      const auto want = patterns::intended_true_edges(spec);
      EXPECT_EQ(d.edges, want)
          << "cross-process true-edge multiset diverged: " << spec.describe()
          << " nprocs=" << nprocs;
      ASSERT_TRUE(images_equal(d.image, run_oracle(spec, opt.nfields)))
          << spec.describe();
    }
  }
}

// --- per-stream accounting across processes ------------------------------------

/// Mirror of submit_point's staging rule: how many input cells of the whole
/// graph live on a different rank than their consumer. Every one of them
/// must cost exactly one copy-in, duplicates included.
std::uint64_t expected_remote_fetches(const PatternSpec& spec, int nfields,
                                      unsigned nprocs) {
  std::uint64_t fetches = 0;
  for (long t = 0; t < spec.steps; ++t)
    for (long p = 0; p < spec.width_at(t); ++p) {
      if (spec.kind == PatternKind::Chain && nfields == 1 && t > 0)
        continue;  // in-place inout: producer and consumer share the datum
      const long src_f = t > 0 ? (t - 1) % nfields : 0;
      const unsigned owner =
          datum_owner(t % nfields, p, nprocs);
      Interval iv[kMaxIntervals];
      const std::size_t n = spec.dependencies(t, p, iv);
      for (std::size_t k = 0; k < n; ++k)
        for (long q = iv[k].lo; q <= iv[k].hi; ++q)
          if (datum_owner(src_f, q, nprocs) != owner) ++fetches;
    }
  return fetches;
}

TEST(DistAccounting, RankRowsSumToGlobalTotals) {
  SMPSS_REQUIRE_FORK();
  for (PatternKind kind : {PatternKind::Stencil1D, PatternKind::AllToAll}) {
    const PatternSpec spec = standard_spec(kind);
    const unsigned nprocs = 3;
    RunOptions opt;
    opt.cfg.num_threads = 1;
    opt.nfields = default_fields(spec);
    const DistResult d = run_pattern_dist(spec, opt, nprocs);
    ASSERT_TRUE(d.clean_children);
    ASSERT_EQ(d.ranks.size(), nprocs);

    const std::uint64_t total = spec.total_tasks();
    DistRankStats sum;
    for (const DistRankStats& r : d.ranks) {
      sum.tasks_spawned += r.tasks_spawned;
      sum.tasks_executed += r.tasks_executed;
      sum.publishes += r.publishes;
      sum.fetches += r.fetches;
      sum.retires_sent += r.retires_sent;
    }
    EXPECT_EQ(d.total_tasks, total);
    EXPECT_EQ(sum.tasks_spawned, total) << spec.describe();
    EXPECT_EQ(sum.tasks_executed, total) << spec.describe();
    EXPECT_EQ(sum.publishes, total)
        << "every task publishes exactly one slot, " << spec.describe();
    EXPECT_EQ(sum.retires_sent, total) << spec.describe();
    EXPECT_EQ(d.retires_received, total)
        << "coordinator lost or invented Retire messages, "
        << spec.describe();
    const std::uint64_t want_fetches =
        expected_remote_fetches(spec, opt.nfields, nprocs);
    EXPECT_GT(want_fetches, 0u)
        << "spec never crosses a process boundary — test is vacuous";
    EXPECT_EQ(sum.fetches, want_fetches) << spec.describe();
  }
}

// --- the transfer layer: copy-back across the process boundary -----------------

TEST(DistTransfer, MixedSizeCopybackCrossesProcessBoundary) {
  SMPSS_REQUIRE_FORK();
  // Cross-process variant of MixedSize.CopybackKeepsTailOfSupersededLargerWrite:
  // the datum lives in a shared segment, the whole renamed schedule runs in
  // a forked child, and the *parent* verifies the merged-extent invariant —
  // the copy-back a sibling process observes must carry the superseded
  // larger write's tail, not truncate it.
  constexpr std::size_t kBig = 1024, kSmall = 128;
  ShmSegment seg = ShmSegment::create(kBig + 64);
  SegmentAllocator alloc(seg);
  unsigned char* buf = alloc.alloc<unsigned char>(kBig);
  std::memset(buf, 0xAA, kBig);

  ProcessGroup pg;
  pg.spawn(1, [buf](unsigned) {
    Config cfg;
    cfg.num_threads = 1;
    Runtime rt(cfg);
    int r = 0;
    // Pending reader forces the big write into renamed storage.
    rt.spawn([](const unsigned char* p, int* o) { *o = p[0]; },
             in(buf, kBig), out(&r));
    rt.spawn([](unsigned char* p) { std::memset(p, 0xBB, kBig); },
             out(buf, kBig));
    rt.spawn([](unsigned char* p) { std::memset(p, 0xCC, kSmall); },
             out(buf, kSmall));
    rt.barrier();
    return r == 0xAA;
  });
  ASSERT_TRUE(pg.join()) << "child schedule failed";
  for (std::size_t i = 0; i < kSmall; ++i)
    ASSERT_EQ(buf[i], 0xCC) << "byte " << i;
  for (std::size_t i = kSmall; i < kBig; ++i)
    ASSERT_EQ(buf[i], 0xBB) << "lost merged tail at byte " << i;
}

// --- crash semantics: the stats file's final-line guarantee --------------------

std::string unique_stats_path(const char* tag) {
  return ::testing::TempDir() + "smpss_" + tag + "_" +
         std::to_string(::getpid()) + ".ndjson";
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(DistCrash, KilledChildLeavesPartialRunMarkerNotTornTail) {
  SMPSS_REQUIRE_FORK();
  const std::string path = unique_stats_path("partial");
  // Seed the file the way a SIGKILLed exporter leaves it: one whole line,
  // then a line cut off mid-write with no trailing newline.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "{\"line\":1}\n{\"torn\":tr";
  }
  ShmSegment seg = ShmSegment::create(64);
  auto* ready = new (seg.base()) std::atomic<std::uint64_t>(0);

  ProcessGroup pg;
  pg.spawn(1, [ready](unsigned) {
    ready->store(1, std::memory_order_release);
    for (;;) ::pause();
    return true;
  });
  while (ready->load(std::memory_order_acquire) == 0) ::usleep(1000);
  EXPECT_TRUE(pg.poll()) << "child died before we killed it";
  pg.kill_all();
  EXPECT_FALSE(pg.join(path)) << "a SIGKILLed child reported clean";

  ASSERT_EQ(pg.children().size(), 1u);
  EXPECT_FALSE(pg.children()[0].exited);
  EXPECT_EQ(pg.children()[0].term_signal, SIGKILL);
  EXPECT_FALSE(pg.children()[0].clean());

  const std::string got = slurp(path);
  const std::string want =
      std::string("{\"line\":1}\n{\"torn\":tr\n") +
      "{\"partial_run\":true,\"rank\":1,\"status\":" +
      std::to_string(-SIGKILL) + "}\n";
  EXPECT_EQ(got, want)
      << "torn tail must be newline-terminated and followed by exactly one "
         "well-formed partial-run marker";
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), '\n') << "stats file must end in a complete line";
  std::remove(path.c_str());
}

TEST(DistCrash, CleanChildrenLeaveNoMarker) {
  SMPSS_REQUIRE_FORK();
  const std::string path = unique_stats_path("clean");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "{\"line\":1}\n";
  }
  ProcessGroup pg;
  pg.spawn(2, [](unsigned) { return true; });
  EXPECT_TRUE(pg.join(path));
  EXPECT_EQ(slurp(path), "{\"line\":1}\n")
      << "clean exits must not append partial-run markers";
  std::remove(path.c_str());
}

// --- randomized differential fuzz over process counts --------------------------

PatternSpec random_dist_spec(Xoshiro256& rng) {
  PatternSpec s;
  s.kind = all_pattern_kinds()[rng.next_below(kPatternKindCount)];
  s.width = 2 + static_cast<std::int32_t>(rng.next_below(7));  // 2..8
  s.steps = 2 + static_cast<std::int32_t>(rng.next_below(7));  // 2..8
  s.radix = 1 + static_cast<std::int32_t>(rng.next_below(
                    std::min<std::uint64_t>(4, s.width)));
  s.period = 1 + static_cast<std::int32_t>(rng.next_below(4));
  s.fraction_ppm = static_cast<std::uint32_t>(rng.next_below(1000001));
  s.seed = rng.next();
  // width <= kMaxAddressFanIn keeps every family address-mode legal; the
  // fallback guards any future family that widens beyond its width.
  if (!patterns::address_mode_ok(s)) s.kind = PatternKind::Stencil1D;
  return s;
}

RunOptions random_dist_options(Xoshiro256& rng) {
  RunOptions o;
  o.cfg.procs = 2 + static_cast<unsigned>(rng.next_below(2));  // 2..3
  o.cfg.num_threads = 1 + static_cast<unsigned>(rng.next_below(2));
  o.cfg.renaming = rng.next_below(2) == 0;
  o.cfg.chain_depth = std::array<unsigned, 3>{0, 1, 16}[rng.next_below(3)];
  o.cfg.task_window = std::array<std::size_t, 3>{4, 16, 8192}[rng.next_below(3)];
  o.cfg.nested_tasks = rng.next_below(2) == 0;
  if (o.cfg.nested_tasks && rng.next_below(2) == 0)
    o.shape = SubmitShape::NestedSteps;
  return o;
}

void run_dist_fuzz_seed(std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0xD157F0A7ull);
  const PatternSpec spec = random_dist_spec(rng);
  RunOptions opt = random_dist_options(rng);
  opt.nfields = patterns::min_fields(spec) +
                static_cast<int>(rng.next_below(2));
  const PatternImage expect = run_oracle(spec, opt.nfields);
  const RunResult got = run_pattern(spec, opt);
  ASSERT_TRUE(images_equal(got.image, expect))
      << "ipc fuzz seed=" << seed << " procs=" << opt.cfg.procs << "\n  "
      << spec.describe() << "\n  " << opt.describe() << "\n  "
      << smpss::testing::replay_command("ipc_dist_test", "DistFuzz.*", seed);
}

TEST(DistFuzz, TimeBoxedRandomProcs) {
  SMPSS_REQUIRE_FORK();
  if (auto s = smpss::testing::seed_override()) {
    std::cout << "ipc-fuzz: replaying single seed " << *s << std::endl;
    run_dist_fuzz_seed(*s);
    return;
  }
  // A quarter of the shared fuzz budget — each draw forks 1-2 ranks, so
  // seeds here are an order of magnitude pricier than single-process ones.
  const std::uint64_t base = smpss::testing::fuzz_seed_base(20260807);
  const long long budget_ms = smpss::testing::fuzz_budget_ms(2000, 1, 4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  std::uint64_t seed = base;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_NO_FATAL_FAILURE(run_dist_fuzz_seed(seed))
        << "failing seed: " << seed;
    ++seed;
  }
  std::cout << "ipc-fuzz: " << (seed - base) << " seeds in [" << base << ", "
            << (seed == base ? base : seed - 1)
            << "], budget_ms=" << budget_ms << std::endl;
}

}  // namespace
}  // namespace smpss::ipc
