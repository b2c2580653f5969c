// Real-OpenMP baseline tests (skipped gracefully when the build lacks
// OpenMP). The multisort and N-Queens sweeps run the OpenMP builds beside
// the other runtimes; this suite keeps what they do not cover: the
// availability contract and a duplicate-heavy sort across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/multisort.hpp"
#include "apps/nqueens.hpp"
#include "baselines/omp_real/omp_tasks.hpp"
#include "common/rng.hpp"

namespace smpss {
namespace {

TEST(OmpReal, AvailabilityIsConsistent) {
  if (ompreal::available()) {
    EXPECT_GE(ompreal::max_threads(), 1u);
  } else {
    EXPECT_EQ(ompreal::max_threads(), 0u);
    EXPECT_EQ(apps::nqueens_omp(2, 6, 3), -1);
    std::vector<long> data{3, 1, 2}, tmp(data.size());
    EXPECT_FALSE(apps::multisort_omp(2, data.data(), tmp.data(), 3, 8, 8));
    EXPECT_EQ(data, (std::vector<long>{3, 1, 2}));
  }
}

TEST(OmpReal, MultisortAcrossThreadCounts) {
  if (!ompreal::available()) GTEST_SKIP() << "no OpenMP in this build";
  for (unsigned t : {1u, 2u, 8u}) {
    Xoshiro256 rng(100 + t);
    std::vector<long> data(20000);
    for (auto& x : data) x = static_cast<long>(rng.next() % 999);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    std::vector<long> tmp(data.size());
    ASSERT_TRUE(apps::multisort_omp(t, data.data(), tmp.data(),
                                    static_cast<long>(data.size()), 512, 256));
    EXPECT_EQ(data, expect) << "threads=" << t;
  }
}

}  // namespace
}  // namespace smpss
