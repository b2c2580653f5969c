// BLAS substrate validation: every kernel in both variants against a
// double-precision naive oracle, across block sizes including awkward odd
// ones; algebraic properties (potrf reconstruction, trsm inverse); and the
// threaded-BLAS baselines against sequential results.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "blas/kernels.hpp"
#include "blas/threaded_blas.hpp"
#include "common/rng.hpp"
#include "hyper/flat_matrix.hpp"

namespace smpss {
namespace {

std::vector<float> random_block(int m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> b(static_cast<std::size_t>(m) * m);
  for (auto& v : b) v = 2.0f * rng.next_float() - 1.0f;
  return b;
}

std::vector<float> spd_block(int m, std::uint64_t seed) {
  auto r = random_block(m, seed);
  std::vector<float> a(static_cast<std::size_t>(m) * m, 0.0f);
  // a = r r^T / m + 2 I : SPD and well-conditioned in float.
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j) {
      double acc = 0;
      for (int k = 0; k < m; ++k)
        acc += static_cast<double>(r[i * m + k]) * r[j * m + k];
      a[i * m + j] = static_cast<float>(acc / m);
    }
  for (int i = 0; i < m; ++i) a[i * m + i] += 2.0f;
  return a;
}

float max_diff(const std::vector<float>& a, const std::vector<float>& b) {
  float d = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

// Block sizes: awkward odd ones, and 127..129 around the benchmarks' 128
// tile, which reach every edge path of the tuned kernels' 4x8 tile and
// 4-wide row updates.
constexpr int kSizes[] = {1, 2, 3, 5, 8, 16, 17, 31, 32, 33, 64, 127, 128, 129};

using KParam = std::tuple<blas::Variant, int>;  // variant, block size

class KernelSuite : public ::testing::TestWithParam<KParam> {
 protected:
  const blas::Kernels& k() const { return blas::kernels(std::get<0>(GetParam())); }
  int m() const { return std::get<1>(GetParam()); }
  float tol() const { return 1e-3f * static_cast<float>(m()); }
};

TEST_P(KernelSuite, GemmNtMinusMatchesOracle) {
  auto a = random_block(m(), 1), b = random_block(m(), 2),
       c = random_block(m(), 3);
  auto expect = c;
  for (int i = 0; i < m(); ++i)
    for (int j = 0; j < m(); ++j) {
      double acc = 0;
      for (int kk = 0; kk < m(); ++kk)
        acc += static_cast<double>(a[i * m() + kk]) * b[j * m() + kk];
      expect[i * m() + j] = static_cast<float>(expect[i * m() + j] - acc);
    }
  k().gemm_nt_minus(m(), a.data(), b.data(), c.data());
  EXPECT_LE(max_diff(c, expect), tol());
}

TEST_P(KernelSuite, GemmNnAccMatchesOracle) {
  auto a = random_block(m(), 4), b = random_block(m(), 5),
       c = random_block(m(), 6);
  auto expect = c;
  for (int i = 0; i < m(); ++i)
    for (int j = 0; j < m(); ++j) {
      double acc = 0;
      for (int kk = 0; kk < m(); ++kk)
        acc += static_cast<double>(a[i * m() + kk]) * b[kk * m() + j];
      expect[i * m() + j] = static_cast<float>(expect[i * m() + j] + acc);
    }
  k().gemm_nn_acc(m(), a.data(), b.data(), c.data());
  EXPECT_LE(max_diff(c, expect), tol());
}

TEST_P(KernelSuite, SyrkLowerMatchesOracle) {
  auto a = random_block(m(), 7), c = random_block(m(), 8);
  auto expect = c;
  for (int i = 0; i < m(); ++i)
    for (int j = 0; j <= i; ++j) {
      double acc = 0;
      for (int kk = 0; kk < m(); ++kk)
        acc += static_cast<double>(a[i * m() + kk]) * a[j * m() + kk];
      expect[i * m() + j] = static_cast<float>(expect[i * m() + j] - acc);
    }
  k().syrk_ln_minus(m(), a.data(), c.data());
  // Lower triangle updated, upper untouched.
  for (int i = 0; i < m(); ++i)
    for (int j = 0; j < m(); ++j)
      EXPECT_NEAR(c[i * m() + j], expect[i * m() + j], tol())
          << "(" << i << "," << j << ")";
}

TEST_P(KernelSuite, PotrfReconstructs) {
  auto a = spd_block(m(), 9);
  auto orig = a;
  ASSERT_EQ(k().potrf_ln(m(), a.data()), 0);
  // L L^T must reproduce the lower triangle of the original.
  for (int i = 0; i < m(); ++i)
    for (int j = 0; j <= i; ++j) {
      double acc = 0;
      for (int kk = 0; kk <= j; ++kk)
        acc += static_cast<double>(a[i * m() + kk]) * a[j * m() + kk];
      EXPECT_NEAR(acc, orig[i * m() + j], tol()) << i << "," << j;
    }
}

TEST_P(KernelSuite, PotrfRejectsNonPositive) {
  std::vector<float> a(static_cast<std::size_t>(m()) * m(), 0.0f);
  a[0] = -1.0f;
  EXPECT_NE(k().potrf_ln(m(), a.data()), 0);
}

TEST_P(KernelSuite, TrsmSolvesAgainstL) {
  auto spd = spd_block(m(), 10);
  ASSERT_EQ(k().potrf_ln(m(), spd.data()), 0);  // spd now holds L (lower)
  auto x = random_block(m(), 11);
  auto orig = x;
  k().trsm_rltn(m(), spd.data(), x.data());
  // X_new L^T == X_orig, i.e. (X_new L^T)[i][j] = sum_{k<=j} X[i][k] L[j][k].
  for (int i = 0; i < m(); ++i)
    for (int j = 0; j < m(); ++j) {
      double acc = 0;
      for (int kk = 0; kk <= j; ++kk)
        acc += static_cast<double>(x[i * m() + kk]) * spd[j * m() + kk];
      EXPECT_NEAR(acc, orig[i * m() + j], tol()) << i << "," << j;
    }
}

TEST_P(KernelSuite, AddSub) {
  auto a = random_block(m(), 12), b = random_block(m(), 13);
  std::vector<float> c(a.size());
  k().add(m(), a.data(), b.data(), c.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_FLOAT_EQ(c[i], a[i] + b[i]);
  k().sub(m(), a.data(), b.data(), c.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_FLOAT_EQ(c[i], a[i] - b[i]);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSizes, KernelSuite,
    ::testing::Combine(::testing::Values(blas::Variant::Ref,
                                         blas::Variant::Tuned),
                       ::testing::ValuesIn(kSizes)),
    [](const auto& info) {
      return std::string(blas::to_string(std::get<0>(info.param))) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// gemm_nt_minus, syrk_ln_minus and potrf_ln keep ref's per-element operation
// order, so their outputs must match it bit for bit. trsm_rltn multiplies by
// 1/L[j][j] where ref divides, so it only agrees within rounding.
TEST(KernelVariants, TunedAgreesWithRef) {
  const blas::Kernels& ref = blas::ref_kernels();
  const blas::Kernels& tuned = blas::tuned_kernels();
  for (int m : kSizes) {
    SCOPED_TRACE(m);
    auto a = random_block(m, 20), b = random_block(m, 21);
    const auto c = random_block(m, 22);
    auto c1 = c, c2 = c;
    ref.gemm_nt_minus(m, a.data(), b.data(), c1.data());
    tuned.gemm_nt_minus(m, a.data(), b.data(), c2.data());
    EXPECT_TRUE(bit_equal(c1, c2)) << "gemm_nt_minus";

    c1 = c;
    c2 = c;
    ref.syrk_ln_minus(m, a.data(), c1.data());
    tuned.syrk_ln_minus(m, a.data(), c2.data());
    EXPECT_TRUE(bit_equal(c1, c2)) << "syrk_ln_minus";

    auto l1 = spd_block(m, 23);
    auto l2 = l1;
    ASSERT_EQ(ref.potrf_ln(m, l1.data()), 0);
    ASSERT_EQ(tuned.potrf_ln(m, l2.data()), 0);
    EXPECT_TRUE(bit_equal(l1, l2)) << "potrf_ln";

    auto x1 = random_block(m, 24);
    auto x2 = x1;
    ref.trsm_rltn(m, l1.data(), x1.data());
    tuned.trsm_rltn(m, l1.data(), x2.data());
    EXPECT_LE(max_diff(x1, x2), 1e-3f * static_cast<float>(m)) << "trsm_rltn";
  }
}

// --- Threaded baselines -----------------------------------------------------------

class ThreadedBlasSuite : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadedBlasSuite, GemmMatchesSequential) {
  const int n = 96;
  FlatMatrix a(n), b(n), c_par(n), c_seq(n);
  fill_random(a, 1);
  fill_random(b, 2);
  blas::ThreadedBlas tb(GetParam(), blas::Variant::Tuned);
  tb.gemm_nn_acc_flat(n, a.data(), b.data(), c_par.data());
  blas::ref_kernels().gemm_nn_acc(n, a.data(), b.data(), c_seq.data());
  EXPECT_LE(max_abs_diff(c_par, c_seq), 1e-2f);
}

TEST_P(ThreadedBlasSuite, CholeskyMatchesSequential) {
  const int n = 128, bs = 32;
  FlatMatrix a(n);
  fill_spd(a, 3);
  FlatMatrix b(a);
  blas::ThreadedBlas tb(GetParam(), blas::Variant::Tuned);
  ASSERT_EQ(tb.potrf_ln_flat(n, a.data(), bs), 0);
  ASSERT_EQ(blas::ref_kernels().potrf_ln(n, b.data()), 0);
  EXPECT_LE(max_abs_diff_lower(a, b), 5e-2f);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadedBlasSuite,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace smpss
