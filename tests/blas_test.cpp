// BLAS substrate validation: every kernel of ref and of the three widths of
// the tuned table against a double-precision naive oracle, across block
// sizes including awkward odd ones; algebraic properties (potrf
// reconstruction, trsm inverse); bit-exactness between the tables and of
// trsm against its element order; and the threaded-BLAS baselines against
// sequential results. CMake compiles this file with -ffp-contract=off, so
// the scalar order oracle rounds every multiply and subtract on its own.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "blas/kernels.hpp"
#include "blas/threaded_blas.hpp"
#include "blas/tuned_paths.hpp"
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

// Block sizes: awkward odd ones; 6 and 96, multiples of the 8-lane table's
// 6-row tile (96 = 6 x 16 has no edge at all); 127..129 around the
// benchmarks' 128 tile; and 24, 40, 48, 80 and 160, multiples of 8 that
// still leave an edge: a short last 32-column panel (all but 160), a short
// 16-row trsm triangle (24, 40) or a short 6-row tile (40, 80, 160).
// Together they reach every edge path of the three tuned tables' tiles
// (4x8, 6x16, 8x32), of their trsm triangles (4, 8 and 16 rows) and of
// potrf's row update.
constexpr int kSizes[] = {1,  2,  3,  5,  6,  8,   16,  17,  24,  31, 32,
                          33, 40, 48, 64, 80, 96, 127, 128, 129, 160};

// The kernel tables under test: ref, and the three widths of the tuned
// table.
enum class Table { Ref, Lanes4, Lanes8, Lanes16 };

const char* to_string(Table t) {
  switch (t) {
    case Table::Ref: return "ref";
    case Table::Lanes4: return "lanes4";
    case Table::Lanes8: return "lanes8";
    case Table::Lanes16: return "lanes16";
  }
  return "?";
}

void PrintTo(Table t, std::ostream* os) { *os << to_string(t); }

/// The table, or nullptr when this CPU cannot run it.
const blas::Kernels* table(Table t) {
  switch (t) {
    case Table::Ref: return &blas::ref_kernels();
    case Table::Lanes4: return &blas::tuned_lanes4_kernels();
    case Table::Lanes8: return blas::tuned_lanes8_kernels();
    case Table::Lanes16: return blas::tuned_lanes16_kernels();
  }
  return nullptr;
}

/// Why table(t) is nullptr.
const char* missing(Table t) {
  return t == Table::Lanes16
             ? "the 16-lane table needs AVX-512F, which this CPU (or non-x86 "
               "build) lacks"
             : "the 8-lane table needs AVX2, which this CPU (or non-x86 "
               "build) lacks";
}

using KParam = std::tuple<Table, int>;  // table, block size

class KernelSuite : public ::testing::TestWithParam<KParam> {
 protected:
  void SetUp() override {
    kernels_ = table(std::get<0>(GetParam()));
    if (kernels_ == nullptr) GTEST_SKIP() << missing(std::get<0>(GetParam()));
  }
  const blas::Kernels& k() const { return *kernels_; }
  int m() const { return std::get<1>(GetParam()); }
  float tol() const { return 1e-3f * static_cast<float>(m()); }

 private:
  const blas::Kernels* kernels_ = nullptr;
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
    ::testing::Combine(::testing::Values(Table::Ref, Table::Lanes4,
                                         Table::Lanes8, Table::Lanes16),
                       ::testing::ValuesIn(kSizes)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Every kernel of `k`, in table order, on the same inputs for every table.
std::vector<std::pair<const char*, std::vector<float>>> all_outputs(
    const blas::Kernels& k, int m) {
  const auto a = random_block(m, 30), b = random_block(m, 31),
             c = random_block(m, 32);
  auto l = spd_block(m, 33);
  EXPECT_EQ(blas::ref_kernels().potrf_ln(m, l.data()), 0);  // trsm's L
  std::vector<std::pair<const char*, std::vector<float>>> out;
  auto c1 = c;
  k.gemm_nt_minus(m, a.data(), b.data(), c1.data());
  out.emplace_back("gemm_nt_minus", c1);
  c1 = c;
  k.gemm_nn_acc(m, a.data(), b.data(), c1.data());
  out.emplace_back("gemm_nn_acc", c1);
  c1 = c;
  k.syrk_ln_minus(m, a.data(), c1.data());
  out.emplace_back("syrk_ln_minus", c1);
  c1 = a;
  k.trsm_rltn(m, l.data(), c1.data());
  out.emplace_back("trsm_rltn", c1);
  c1 = spd_block(m, 34);
  EXPECT_EQ(k.potrf_ln(m, c1.data()), 0);
  out.emplace_back("potrf_ln", c1);
  k.add(m, a.data(), b.data(), c1.data());
  out.emplace_back("add", c1);
  k.sub(m, a.data(), b.data(), c1.data());
  out.emplace_back("sub", c1);
  return out;
}

class KernelVariants : public ::testing::TestWithParam<Table> {
 protected:
  void SetUp() override {
    kernels_ = table(GetParam());
    if (kernels_ == nullptr) GTEST_SKIP() << missing(GetParam());
  }
  const blas::Kernels& tuned() const { return *kernels_; }

 private:
  const blas::Kernels* kernels_ = nullptr;
};

// gemm_nt_minus, syrk_ln_minus and potrf_ln keep ref's per-element operation
// order at every width, so their outputs must match it bit for bit.
// trsm_rltn multiplies by 1/L[j][j] where ref divides, so it only agrees
// within rounding. The 8- and 16-lane tables must also match the 4-lane one
// bit for bit on all seven kernels: only the vector width differs between
// them.
TEST_P(KernelVariants, TunedAgreesWithRef) {
  const blas::Kernels& ref = blas::ref_kernels();
  for (int m : kSizes) {
    SCOPED_TRACE(m);
    auto a = random_block(m, 20), b = random_block(m, 21);
    const auto c = random_block(m, 22);
    auto c1 = c, c2 = c;
    ref.gemm_nt_minus(m, a.data(), b.data(), c1.data());
    tuned().gemm_nt_minus(m, a.data(), b.data(), c2.data());
    EXPECT_TRUE(bit_equal(c1, c2)) << "gemm_nt_minus";

    c1 = c;
    c2 = c;
    ref.syrk_ln_minus(m, a.data(), c1.data());
    tuned().syrk_ln_minus(m, a.data(), c2.data());
    EXPECT_TRUE(bit_equal(c1, c2)) << "syrk_ln_minus";

    auto l1 = spd_block(m, 23);
    auto l2 = l1;
    ASSERT_EQ(ref.potrf_ln(m, l1.data()), 0);
    ASSERT_EQ(tuned().potrf_ln(m, l2.data()), 0);
    EXPECT_TRUE(bit_equal(l1, l2)) << "potrf_ln";

    auto x1 = random_block(m, 24);
    auto x2 = x1;
    ref.trsm_rltn(m, l1.data(), x1.data());
    tuned().trsm_rltn(m, l1.data(), x2.data());
    EXPECT_LE(max_diff(x1, x2), 1e-3f * static_cast<float>(m)) << "trsm_rltn";

    if (GetParam() == Table::Lanes4) continue;
    const auto narrow_out = all_outputs(blas::tuned_lanes4_kernels(), m);
    const auto wide_out = all_outputs(tuned(), m);
    for (std::size_t i = 0; i < narrow_out.size(); ++i)
      EXPECT_TRUE(bit_equal(narrow_out[i].second, wide_out[i].second))
          << narrow_out[i].first;
  }
}

// trsm_rltn solves on register tiles, but each entry must still take the
// plain loop's operations in its order: x[q] -= x[k] * L[q][k] in ascending
// k, then x[q] *= 1/L[q][q].
TEST_P(KernelVariants, TrsmKeepsTheElementOrder) {
  for (int m : kSizes) {
    SCOPED_TRACE(m);
    auto l = spd_block(m, 25);
    ASSERT_EQ(blas::ref_kernels().potrf_ln(m, l.data()), 0);
    auto expect = random_block(m, 26);
    auto x = expect;
    for (int i = 0; i < m; ++i) {
      float* xi = expect.data() + i * m;
      for (int q = 0; q < m; ++q) {
        for (int kk = 0; kk < q; ++kk) xi[q] -= xi[kk] * l[q * m + kk];
        xi[q] *= 1.0f / l[q * m + q];
      }
    }
    tuned().trsm_rltn(m, l.data(), x.data());
    EXPECT_TRUE(bit_equal(x, expect));
  }
}

INSTANTIATE_TEST_SUITE_P(TunedTables, KernelVariants,
                         ::testing::Values(Table::Lanes4, Table::Lanes8,
                                           Table::Lanes16),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// The process runs the widest table the CPU runs. The line it prints tells
// a CI log which table the other suites' apps ran.
TEST(TunedKernels, IsTheWidestTableTheCpuRuns) {
  const blas::Kernels& chosen = blas::tuned_kernels();
  bool avx2 = false, avx512f = false;
#if defined(__x86_64__) || defined(__i386__)
  avx2 = __builtin_cpu_supports("avx2");
  avx512f = __builtin_cpu_supports("avx512f");
#endif
  std::printf("tuned_kernels() is \"%s\" (CPU %s AVX-512F, %s AVX2)\n",
              chosen.name, avx512f ? "has" : "lacks", avx2 ? "has" : "lacks");
  EXPECT_EQ(blas::tuned_lanes16_kernels() != nullptr, avx512f);
  EXPECT_EQ(blas::tuned_lanes8_kernels() != nullptr, avx2);
  const blas::Kernels* widest = avx512f ? blas::tuned_lanes16_kernels()
                                : avx2  ? blas::tuned_lanes8_kernels()
                                        : &blas::tuned_lanes4_kernels();
  EXPECT_EQ(&chosen, widest);
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
