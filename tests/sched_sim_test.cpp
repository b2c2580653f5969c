// List-scheduling simulator tests: known makespans on canonical graphs and
// consistency properties (monotone in P, bounded by critical path and
// work/P) on runtime-recorded graphs.
#include <gtest/gtest.h>

#include "apps/cholesky.hpp"
#include "graph/sched_sim.hpp"
#include "hyper/flat_matrix.hpp"
#include "runtime/runtime.hpp"

namespace smpss {
namespace {

GraphRecorder chain(int n) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= n; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  for (int i = 1; i < n; ++i)
    rec.record_edge(static_cast<std::uint64_t>(i),
                    static_cast<std::uint64_t>(i + 1), EdgeKind::True);
  return rec;
}

GraphRecorder independent(int n) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= n; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  return rec;
}

TEST(SchedSim, ChainIsSerialAtAnyP) {
  auto rec = chain(10);
  for (unsigned p : {1u, 2u, 8u, 64u}) {
    auto r = simulate_schedule(rec, p);
    EXPECT_DOUBLE_EQ(r.makespan, 10.0) << "P=" << p;
    EXPECT_DOUBLE_EQ(r.critical_path, 10.0);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
  }
}

TEST(SchedSim, IndependentTasksDivideByP) {
  auto rec = independent(12);
  EXPECT_DOUBLE_EQ(simulate_schedule(rec, 1).makespan, 12.0);
  EXPECT_DOUBLE_EQ(simulate_schedule(rec, 3).makespan, 4.0);
  EXPECT_DOUBLE_EQ(simulate_schedule(rec, 12).makespan, 1.0);
  EXPECT_DOUBLE_EQ(simulate_schedule(rec, 100).makespan, 1.0);
}

TEST(SchedSim, UnevenDivision) {
  auto rec = independent(10);
  EXPECT_DOUBLE_EQ(simulate_schedule(rec, 4).makespan, 3.0);  // ceil(10/4)
}

TEST(SchedSim, DiamondWithCosts) {
  GraphRecorder rec;
  rec.set_enabled(true);
  rec.record_node(1, 0);
  rec.record_node(2, 1);
  rec.record_node(3, 1);
  rec.record_node(4, 0);
  rec.record_edge(1, 2, EdgeKind::True);
  rec.record_edge(1, 3, EdgeKind::True);
  rec.record_edge(2, 4, EdgeKind::True);
  rec.record_edge(3, 4, EdgeKind::True);
  // type 0 costs 1, type 1 costs 5.
  std::vector<double> costs = {1.0, 5.0};
  auto r2 = simulate_schedule(rec, 2, costs);
  EXPECT_DOUBLE_EQ(r2.makespan, 7.0);          // 1 + 5 (parallel) + 1
  EXPECT_DOUBLE_EQ(r2.critical_path, 7.0);
  auto r1 = simulate_schedule(rec, 1, costs);
  EXPECT_DOUBLE_EQ(r1.makespan, 12.0);         // all serial
}

TEST(SchedSim, EmptyGraph) {
  GraphRecorder rec;
  auto r = simulate_schedule(rec, 4);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

TEST(SchedSimProperty, BoundsHoldOnCholeskyGraph) {
  Config cfg;
  cfg.num_threads = 1;
  cfg.record_graph = true;
  Runtime rt(cfg);
  auto tt = apps::CholeskyTasks::register_in(rt);
  HyperMatrix h(8, 4, true);
  FlatMatrix a(32);
  fill_spd(a, 3);
  blocked_from_flat(h, a.data());
  ASSERT_EQ(apps::cholesky_smpss_hyper(rt, tt, h, blas::ref_kernels()), 0);

  const auto& rec = rt.graph_recorder();
  double prev = 0.0;
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 64u}) {
    auto r = simulate_schedule(rec, p);
    // Lower bounds: work/P and the critical path.
    EXPECT_GE(r.makespan + 1e-9, r.total_work / p);
    EXPECT_GE(r.makespan + 1e-9, r.critical_path);
    // Monotone: more processors never hurt a greedy scheduler on unit-ish
    // costs with a fixed priority order.
    if (prev > 0.0) EXPECT_LE(r.makespan, prev + 1e-9);
    prev = r.makespan;
  }
  // At P=1 makespan equals total work exactly.
  auto r1 = simulate_schedule(rec, 1);
  EXPECT_DOUBLE_EQ(r1.makespan, r1.total_work);
}

TEST(SchedSimPolicyReplay, MatchesRuntimeOrderSingleWorker) {
  // The replay regime where simulate_policy_order is exact: one worker and a
  // window larger than the graph, so every submission precedes every
  // execution. The program mixes lane chains (single-release chaining), a
  // shared reduction (multi-release batches), and high-priority injections
  // (preempt_chain coverage); the simulator, driving the real ReadyLists
  // implementation, must reproduce the runtime's execution order task for
  // task — in both scheduler modes and with chaining off and on.
  for (SchedulerMode mode :
       {SchedulerMode::Distributed, SchedulerMode::Centralized}) {
    for (unsigned depth : {0u, 16u}) {
      Config cfg;
      cfg.num_threads = 1;
      cfg.record_graph = true;
      cfg.tracing = true;
      cfg.chain_depth = depth;
      cfg.scheduler_mode = mode;
      Runtime rt(cfg);
      TaskType urgent = rt.register_task_type("urgent", true);

      constexpr int kLanes = 4;
      constexpr int kSteps = 12;
      std::vector<unsigned long> lanes(kLanes, 1);
      unsigned long total = 0;
      static int dummy = 0;
      for (int s = 0; s < kSteps; ++s) {
        for (int l = 0; l < kLanes; ++l)
          rt.spawn(
              [s](unsigned long* p) {
                *p = *p * 5 + static_cast<unsigned>(s);
              },
              inout(&lanes[static_cast<std::size_t>(l)]));
        for (int l = 0; l < kLanes; ++l)
          rt.spawn(
              [](const unsigned long* p, unsigned long* acc) {
                *acc += *p % 9;
              },
              in(&lanes[static_cast<std::size_t>(l)]), inout(&total));
        if (s % 3 == 0)
          rt.spawn(urgent, [](const int* d) { (void)d; }, opaque(&dummy));
      }
      rt.barrier();

      std::vector<std::uint64_t> real;
      for (const auto& e : rt.tracer().collect())  // sorted by start time
        real.push_back(e.seq);

      std::vector<std::uint8_t> high(urgent.id + 1, 0);
      high[urgent.id] = 1;
      const auto sim = simulate_policy_order(rt.graph_recorder(), mode,
                                             cfg.chain_depth, high);
      ASSERT_EQ(sim.size(), real.size())
          << "mode=" << to_string(mode) << " depth=" << depth;
      EXPECT_EQ(sim, real) << "simulated order diverged from the runtime "
                           << "(mode=" << to_string(mode)
                           << " depth=" << depth << ")";
    }
  }
}

TEST(SchedSimProperty, SixBySixCholeskyParallelismMatchesPaperNarrative) {
  Config cfg;
  cfg.num_threads = 1;
  cfg.record_graph = true;
  Runtime rt(cfg);
  auto tt = apps::CholeskyTasks::register_in(rt);
  HyperMatrix h(6, 4, true);
  FlatMatrix a(24);
  fill_spd(a, 4);
  blocked_from_flat(h, a.data());
  ASSERT_EQ(apps::cholesky_smpss_hyper(rt, tt, h, blas::ref_kernels()), 0);
  // 56 tasks, 16-deep critical path: speedup saturates around 3.5x no
  // matter how many cores — "the algorithm generates only 56 tasks".
  auto r = simulate_schedule(rt.graph_recorder(), 32);
  EXPECT_GT(r.speedup, 2.0);
  EXPECT_LT(r.speedup, 6.0);
  EXPECT_DOUBLE_EQ(r.makespan, r.critical_path);  // enough cores: CP-bound
}

}  // namespace
}  // namespace smpss
