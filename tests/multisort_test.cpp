// Multisort tests: the sequential primitives (quicksort, two-run merge,
// co-rank), and every parallel build (regions, representants, fork-join,
// task pool, real OpenMP) against std::sort, over sizes/thread counts/data
// shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <functional>
#include <iterator>
#include <tuple>
#include <vector>

#include "apps/multisort.hpp"
#include "baselines/omp_real/omp_tasks.hpp"
#include "common/rng.hpp"

namespace smpss {
namespace {

using apps::ELM;

std::vector<ELM> random_data(long n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<ELM> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<ELM>(rng.next() % 1000000);
  return v;
}

// Musser's median-of-3 killer for n = 2k (k rounded down for odd n; the
// last slot of an odd n holds 2k + 1).
std::vector<ELM> median3_killer(long n) {
  const long k = n / 2;
  std::vector<ELM> v(static_cast<std::size_t>(n), 2 * k + 1);
  for (long i = 1; i <= k; ++i) {
    if (i % 2 == 1) {
      v[static_cast<std::size_t>(i - 1)] = i;
      v[static_cast<std::size_t>(i)] = k + i;
    }
    v[static_cast<std::size_t>(k + i - 1)] = 2 * i;
  }
  return v;
}

// Sizes straddle the insertion-sort threshold (32) and the leaf size
// (2^14); 0 and 1 are the empty and one-element ranges.
TEST(SeqQuick, MatchesStdSortOnEveryShape) {
  using Gen = std::function<ELM(long i, long n, Xoshiro256& rng)>;
  const std::vector<std::pair<const char*, Gen>> shapes = {
      {"random",
       [](long i, long n, Xoshiro256& rng) {
         if (i == n / 3) return LONG_MIN;
         if (i == n / 2) return LONG_MAX;
         return static_cast<ELM>(rng.next());
       }},
      {"all_equal", [](long, long, Xoshiro256&) { return ELM{42}; }},
      {"two_values",
       [](long, long, Xoshiro256& rng) {
         return rng.next() % 2 ? LONG_MAX : LONG_MIN;
       }},
      {"mod4",
       [](long, long, Xoshiro256& rng) {
         return static_cast<ELM>(rng.next() % 4);
       }},
      {"sorted", [](long i, long, Xoshiro256&) { return ELM{i}; }},
      {"reverse", [](long i, long n, Xoshiro256&) { return ELM{n - i}; }},
      {"organ_pipe",
       [](long i, long n, Xoshiro256&) { return i < n / 2 ? i : n - 1 - i; }},
      {"sawtooth", [](long i, long, Xoshiro256&) { return ELM{i % 61}; }},
  };
  for (long n : {0L, 1L, 2L, 7L, 31L, 32L, 33L, 34L, 65L, 1000L, 4097L,
                 1L << 14, 1L << 20}) {
    Xoshiro256 rng(static_cast<std::uint64_t>(n));
    std::vector<std::pair<const char*, std::vector<ELM>>> inputs;
    for (const auto& [name, gen] : shapes) {
      std::vector<ELM> v(static_cast<std::size_t>(n));
      for (long i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = gen(i, n, rng);
      inputs.emplace_back(name, std::move(v));
    }
    inputs.emplace_back("median3_killer", median3_killer(n));
    for (auto& [name, v] : inputs) {
      auto expect = v;
      std::sort(expect.begin(), expect.end());
      apps::seqquick(v.data(), 0, n - 1);
      ASSERT_EQ(v, expect) << name << " n=" << n;
    }
  }
}

// Median-of-3 Lomuto is quadratic on an organ pipe: without the depth
// bound this sort takes over 20 minutes (~1.4 s at 2^16, x4 per doubling),
// so the suite's 600 s ctest timeout fails it. With the bound it is a
// fraction of a second.
TEST(SeqQuick, DepthBoundKeepsOrganPipeFast) {
  const long n = 1L << 21;
  std::vector<ELM> v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = i < n / 2 ? i : n - 1 - i;
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  apps::seqquick(v.data(), 0, n - 1);
  EXPECT_EQ(v, expect);
}

TEST(SeqQuick, SortsOnlyItsRange) {
  // A sub-range is sorted in place; its neighbours stay untouched, which
  // the equal-pivot rule relies on (it reads the element left of a range).
  std::vector<ELM> v(3000);
  Xoshiro256 rng(12);
  for (auto& x : v) x = static_cast<ELM>(rng.next_below(3));
  const auto before = v;
  apps::seqquick(v.data(), 1000, 1999);
  EXPECT_TRUE(std::equal(v.begin(), v.begin() + 1000, before.begin()));
  EXPECT_TRUE(std::equal(v.begin() + 2000, v.end(), before.begin() + 2000));
  EXPECT_TRUE(std::is_sorted(v.begin() + 1000, v.begin() + 2000));
  EXPECT_TRUE(std::is_permutation(v.begin() + 1000, v.begin() + 2000,
                                  before.begin() + 1000));
}

// Sorted runs of random length 0..max_len with values 0..9, so most
// comparisons are ties.
std::vector<ELM> tie_run(Xoshiro256& rng, std::uint64_t max_len) {
  std::vector<ELM> v(static_cast<std::size_t>(rng.next_below(max_len + 1)));
  for (auto& x : v) x = static_cast<ELM>(rng.next_below(10));
  std::sort(v.begin(), v.end());
  return v;
}

TEST(MergePiece, EveryPieceMatchesStdMerge) {
  Xoshiro256 rng(2024);
  bool odd = false, even = false;
  for (int iter = 0; iter < 150; ++iter) {
    const auto a = tie_run(rng, 40), b = tie_run(rng, 40);
    const long la = static_cast<long>(a.size()), lb = static_cast<long>(b.size());
    const long total = la + lb;
    (total % 2 ? odd : even) = true;
    std::vector<ELM> full;
    std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(full));
    for (long t0 = 0; t0 <= total; ++t0) {
      for (long t1 = t0; t1 <= total; ++t1) {
        // Sentinels around the piece catch a write outside [t0, t1).
        std::vector<ELM> out(static_cast<std::size_t>(total), -1);
        apps::merge_piece(a.data(), la, b.data(), lb, t0, t1, out.data());
        for (long t = 0; t < total; ++t) {
          const ELM want = t0 <= t && t < t1 ? full[static_cast<std::size_t>(t)] : -1;
          ASSERT_EQ(out[static_cast<std::size_t>(t)], want)
              << "la=" << la << " lb=" << lb << " piece [" << t0 << ", " << t1
              << ") t=" << t;
        }
      }
    }
  }
  EXPECT_TRUE(odd && even);
}

TEST(MergePiece, ConsecutivePiecesReproduceTheMerge) {
  // The co-rank cuts of adjacent pieces meet: pieces written one after the
  // other, at any piece size, concatenate to std::merge.
  Xoshiro256 rng(77);
  for (int iter = 0; iter < 100; ++iter) {
    const auto a = tie_run(rng, 300), b = tie_run(rng, 300);
    const long la = static_cast<long>(a.size()), lb = static_cast<long>(b.size());
    std::vector<ELM> full;
    std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(full));
    const long piece = 1 + static_cast<long>(rng.next_below(64));
    std::vector<ELM> out(full.size(), -1);
    for (long t0 = 0; t0 < la + lb; t0 += piece)
      apps::merge_piece(a.data(), la, b.data(), lb, t0,
                        std::min(la + lb, t0 + piece), out.data());
    ASSERT_EQ(out, full) << "la=" << la << " lb=" << lb << " piece=" << piece;
  }
}

TEST(SeqMerge, MatchesStdMergeWithOneRunEmpty) {
  Xoshiro256 rng(31);
  for (long len : {1L, 2L, 7L, 64L}) {
    std::vector<ELM> run(static_cast<std::size_t>(len));
    for (auto& x : run) x = static_cast<ELM>(rng.next_below(10));
    std::sort(run.begin(), run.end());
    std::vector<ELM> dest(run.size(), -1);
    apps::seqmerge(run.data(), 0, len - 1, len, len - 1, dest.data());
    EXPECT_EQ(dest, run) << "second run empty, len=" << len;
    std::fill(dest.begin(), dest.end(), -1);
    apps::seqmerge(run.data(), 0, -1, 0, len - 1, dest.data());
    EXPECT_EQ(dest, run) << "first run empty, len=" << len;
  }
}

TEST(SeqMerge, MatchesStdMergeOnOddAndEvenTotals) {
  // Adjacent runs inside a larger array, merged into dest at the same
  // offset, as the sort tree calls it.
  Xoshiro256 rng(5);
  for (long la : {1L, 2L, 3L, 500L, 4096L}) {
    for (long lb : {1L, 2L, 5L, 501L, 4096L}) {
      const long off = 3;
      std::vector<ELM> data(static_cast<std::size_t>(off + la + lb));
      for (auto& x : data) x = static_cast<ELM>(rng.next());
      std::sort(data.begin() + off, data.begin() + off + la);
      std::sort(data.begin() + off + la, data.end());
      std::vector<ELM> want(data.begin(), data.begin() + off);
      std::merge(data.begin() + off, data.begin() + off + la,
                 data.begin() + off + la, data.end(), std::back_inserter(want));
      std::vector<ELM> dest(data.begin(), data.begin() + off);
      dest.resize(data.size(), -1);
      apps::seqmerge(data.data(), off, off + la - 1, off + la,
                     off + la + lb - 1, dest.data());
      ASSERT_EQ(dest, want) << "la=" << la << " lb=" << lb;
    }
  }
}

// Property: co_rank(t) splits so that merging prefix pieces reproduces the
// full merge, for random sorted inputs and all t.
TEST(CoRank, MatchesBruteForceOnRandomRuns) {
  Xoshiro256 rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    long la = static_cast<long>(rng.next_below(20));
    long lb = static_cast<long>(rng.next_below(20));
    std::vector<ELM> a(static_cast<std::size_t>(la)),
        b(static_cast<std::size_t>(lb));
    for (auto& x : a) x = static_cast<ELM>(rng.next_below(50));
    for (auto& x : b) x = static_cast<ELM>(rng.next_below(50));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<ELM> merged;
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(merged));
    for (long t = 0; t <= la + lb; ++t) {
      long ia = apps::co_rank(t, a.data(), la, b.data(), lb);
      long ib = t - ia;
      ASSERT_GE(ia, 0);
      ASSERT_LE(ia, la);
      ASSERT_GE(ib, 0);
      ASSERT_LE(ib, lb);
      // The first t merged elements must be exactly a[0..ia) ∪ b[0..ib)
      // as multisets: check boundary conditions instead of re-merging. The
      // strict side is std::merge's tie rule (a first), which makes the
      // split unique and monotone in t, so adjacent pieces never overlap.
      if (ia > 0 && ib < lb) ASSERT_LE(a[ia - 1], b[ib]);
      if (ib > 0 && ia < la) ASSERT_LT(b[ib - 1], a[ia]);
      if (t > 0) ASSERT_LE(apps::co_rank(t - 1, a.data(), la, b.data(), lb), ia);
      (void)merged;
    }
  }
}

using SortParam = std::tuple<unsigned, long, long, long, std::uint64_t>;
// threads, n, quick_size, merge_size, seed

class MultisortSuite : public ::testing::TestWithParam<SortParam> {
 protected:
  void expect_sorted_equal(const std::vector<ELM>& got,
                           std::vector<ELM> original) {
    std::sort(original.begin(), original.end());
    EXPECT_EQ(got, original);
  }
};

TEST_P(MultisortSuite, SeqVariant) {
  auto [threads, n, qs, ms, seed] = GetParam();
  (void)threads;
  (void)ms;
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  apps::multisort_seq(data.data(), tmp.data(), n, qs);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, SmpssRegions) {
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  Config cfg;
  cfg.num_threads = threads;
  Runtime rt(cfg);
  auto tt = apps::MultisortTasks::register_in(rt);
  apps::multisort_smpss_regions(rt, tt, data.data(), tmp.data(), n, qs, ms);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, SmpssRegionsNested) {
  // Same decomposition, sort tree expanded by `sort_rec` worker tasks.
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  Config cfg;
  cfg.num_threads = threads;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  auto tt = apps::MultisortTasks::register_in(rt);
  apps::multisort_smpss_regions(rt, tt, data.data(), tmp.data(), n, qs, ms);
  expect_sorted_equal(data, original);
  if (n / 4 >= qs) EXPECT_GT(rt.stats().taskwaits, 0u);
}

TEST_P(MultisortSuite, SmpssRepresentants) {
  auto [threads, n, qs, ms, seed] = GetParam();
  (void)ms;
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  Config cfg;
  cfg.num_threads = threads;
  Runtime rt(cfg);
  auto tt = apps::MultisortTasks::register_in(rt);
  apps::multisort_smpss_repr(rt, tt, data.data(), tmp.data(), n, qs);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, ForkJoin) {
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  fj::Scheduler s(threads);
  apps::multisort_fj(s, data.data(), tmp.data(), n, qs, ms);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, TaskPool) {
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  omp3::TaskPool p(threads);
  apps::multisort_omp3(p, data.data(), tmp.data(), n, qs, ms);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, OmpReal) {
  if (!ompreal::available()) GTEST_SKIP() << "no OpenMP in this build";
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  ASSERT_TRUE(apps::multisort_omp(threads, data.data(), tmp.data(), n, qs, ms));
  expect_sorted_equal(data, original);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultisortSuite,
    ::testing::Values(SortParam{1, 1000, 64, 32, 1},
                      SortParam{4, 10000, 256, 128, 2},
                      SortParam{8, 50000, 1024, 512, 3},
                      SortParam{8, 65536, 4096, 2048, 4},
                      SortParam{2, 777, 50, 25, 5},     // non-power-of-two
                      SortParam{4, 4096, 8192, 512, 6}  // quick covers all
                      ));

TEST(MultisortEdge, DuplicateHeavyInput) {
  long n = 20000;
  std::vector<ELM> data(static_cast<std::size_t>(n));
  Xoshiro256 rng(8);
  for (auto& x : data) x = static_cast<ELM>(rng.next_below(4));  // few values
  auto original = data;
  std::vector<ELM> tmp(data.size());
  Config cfg;
  cfg.num_threads = 8;
  Runtime rt(cfg);
  auto tt = apps::MultisortTasks::register_in(rt);
  apps::multisort_smpss_regions(rt, tt, data.data(), tmp.data(), n, 512, 256);
  std::sort(original.begin(), original.end());
  EXPECT_EQ(data, original);
}

}  // namespace
}  // namespace smpss
