// Tuned kernels: the "Goto tiles" curve. One kernel body (tuned_body.inc)
// is compiled at two vector widths of GCC/Clang vector types, and
// tuned_kernels() picks a table once per process:
//   - 4-float vectors, plain SSE2 on any x86-64 and no -march; every CPU
//     can run this table, and one without AVX2 does;
//   - 8-float vectors under __attribute__((target("avx2"))), built on x86
//     only, and picked when __builtin_cpu_supports("avx2") holds.
// The Cholesky kernels run their inner loops along the output row:
//   - gemm_nt and syrk share one register-tiled micro-kernel over a k-major
//     packed copy of the second operand, one panel of two vectors' width at
//     a time. The tile is 4x8 at 4 lanes and 6x16 at 8 lanes, where its 12
//     accumulators, 2 panel vectors and 1 broadcast take 15 of the 16 ymm
//     registers;
//   - trsm and potrf are right-looking row updates, y[q] -= x * v[q],
//     against a packed column of L; trsm applies four columns per pass.
// A compiler vectorizes a dot product along k only under -ffast-math,
// because that reorders the sum. Running along the row instead keeps each
// output element's IEEE operation sequence exactly as in the plain loop
// nests: the same products, summed in ascending k from zero and subtracted
// once, and the same multiply by 1/L[j][j]. Multiply and add also stay
// separate: the AVX2 target never names "fma", and CMake compiles this file
// with -ffp-contract=off. gemm_nt, syrk and potrf are therefore
// bit-identical to the ref kernels, and the two tables to each other on
// every kernel; trsm multiplies by the reciprocal where ref divides.
// Packing uses one per-thread scratch buffer, grown to the largest block
// seen and reused after that.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "blas/kernels.hpp"
#include "blas/tuned_paths.hpp"

namespace smpss::blas {
namespace {

#define RESTRICT __restrict__

/// The calling thread's packing buffer, at least `n` floats long.
float* scratch(std::size_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

namespace lanes4 {
constexpr int kLanes = 4;
constexpr int kMr = 4;
constexpr const char* kTableName = "tuned";
#define SMPSS_TUNED_TARGET
#include "blas/tuned_body.inc"
#undef SMPSS_TUNED_TARGET
}  // namespace lanes4

#if defined(__x86_64__) || defined(__i386__)
namespace lanes8 {
constexpr int kLanes = 8;
constexpr int kMr = 6;
constexpr const char* kTableName = "tuned-avx2";
#define SMPSS_TUNED_TARGET __attribute__((target("avx2")))
#include "blas/tuned_body.inc"
#undef SMPSS_TUNED_TARGET
}  // namespace lanes8
#endif

#undef RESTRICT

}  // namespace

const Kernels& tuned_lanes4_kernels() noexcept { return lanes4::kTable; }

const Kernels* tuned_lanes8_kernels() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &lanes8::kTable;
#endif
  return nullptr;
}

const Kernels& tuned_kernels() noexcept {
  static const Kernels* const wide = tuned_lanes8_kernels();
  return wide ? *wide : tuned_lanes4_kernels();
}

}  // namespace smpss::blas
