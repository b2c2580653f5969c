// N-Queens tests: known solution counts, agreement of all parallel builds
// with the sequential oracle, and the renaming behavior the paper highlights
// (SMPSs duplicates the partial-solution array automatically; the Cilk-like,
// OMP3-like and real-OpenMP builds do it by hand).
#include <gtest/gtest.h>

#include <tuple>

#include "apps/nqueens.hpp"
#include "baselines/omp_real/omp_tasks.hpp"

namespace smpss {
namespace {

// OEIS A000170.
long known_count(int n) {
  static const long counts[] = {1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724};
  return counts[n];
}

TEST(NQueensSeq, KnownCounts) {
  for (int n = 1; n <= 10; ++n)
    EXPECT_EQ(apps::nqueens_seq(n), known_count(n)) << "n=" << n;
}

using Param = std::tuple<unsigned, int, int>;  // threads, n, task_depth

class NQueensSuite : public ::testing::TestWithParam<Param> {};

TEST_P(NQueensSuite, SmpssMatchesSeq) {
  auto [threads, n, depth] = GetParam();
  Config cfg;
  cfg.num_threads = threads;
  Runtime rt(cfg);
  auto tt = apps::NQueensTasks::register_in(rt);
  EXPECT_EQ(apps::nqueens_smpss(rt, tt, n, depth), apps::nqueens_seq(n));
}

TEST_P(NQueensSuite, SmpssNestedMatchesSeq) {
  // Fully recursive build: every prefix node is a task spawned from
  // whatever worker expands it, nesting as deep as the cutoff.
  auto [threads, n, depth] = GetParam();
  Config cfg;
  cfg.num_threads = threads;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  auto tt = apps::NQueensTasks::register_in(rt);
  EXPECT_EQ(apps::nqueens_smpss(rt, tt, n, depth), apps::nqueens_seq(n));
  if (n - depth > 0) EXPECT_GT(rt.stats().tasks_nested, 0u);
}

TEST_P(NQueensSuite, ForkJoinMatchesSeq) {
  auto [threads, n, depth] = GetParam();
  fj::Scheduler s(threads);
  EXPECT_EQ(apps::nqueens_fj(s, n, depth), apps::nqueens_seq(n));
}

TEST_P(NQueensSuite, TaskPoolMatchesSeq) {
  auto [threads, n, depth] = GetParam();
  omp3::TaskPool p(threads);
  EXPECT_EQ(apps::nqueens_omp3(p, n, depth), apps::nqueens_seq(n));
}

TEST_P(NQueensSuite, OmpRealMatchesSeq) {
  if (!ompreal::available()) GTEST_SKIP() << "no OpenMP in this build";
  auto [threads, n, depth] = GetParam();
  EXPECT_EQ(apps::nqueens_omp(threads, n, depth), apps::nqueens_seq(n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, NQueensSuite,
                         ::testing::Values(Param{1, 8, 4}, Param{4, 8, 4},
                                           Param{8, 9, 4}, Param{8, 9, 5},
                                           Param{4, 10, 4}, Param{2, 6, 3},
                                           Param{4, 7, 7},   // all-task depth
                                           Param{4, 5, 0})); // no tasks at all

TEST(NQueensRenaming, SmpssRenamesBoardAutomatically) {
  Config cfg;
  // One thread: tasks only run at the barrier, so every branch's set task
  // observes pending solver readers and the rename count is deterministic.
  cfg.num_threads = 1;
  Runtime rt(cfg);
  auto tt = apps::NQueensTasks::register_in(rt);
  long count = apps::nqueens_smpss(rt, tt, 9, 4);
  EXPECT_EQ(count, known_count(9));
  auto s = rt.stats();
  // Every set task racing with pending solver readers forces a renamed
  // board version — "the runtime takes care of it by renaming the array".
  EXPECT_GT(s.renames, 0u);
  EXPECT_EQ(rt.rename_pool().current_bytes(), 0u);
}

TEST(NQueensRenaming, RenamingOffStillCorrectViaWarEdges) {
  Config cfg;
  cfg.num_threads = 1;  // deterministic hazard-edge counts (see above)
  cfg.renaming = false;
  Runtime rt(cfg);
  auto tt = apps::NQueensTasks::register_in(rt);
  EXPECT_EQ(apps::nqueens_smpss(rt, tt, 8, 4), known_count(8));
  EXPECT_GT(rt.stats().war_edges, 0u);  // dependency-unaware serialization
}

}  // namespace
}  // namespace smpss
