// Tuned kernels: the "Goto tiles" curve. One kernel body (tuned_body.inc)
// is compiled at three vector widths of GCC/Clang vector types, and
// tuned_kernels() picks the widest table the CPU runs, once per process:
//   - 4-float vectors, plain SSE2 on any x86-64 and no -march; every CPU
//     can run this table, and one without AVX2 does;
//   - 8-float vectors under __attribute__((target("avx2"))), on x86 only;
//   - 16-float vectors under __attribute__((target("avx512f"))), on x86
//     only, picked when __builtin_cpu_supports("avx512f") holds.
// The Cholesky kernels run their inner loops along the output row:
//   - gemm_nt, syrk and trsm share one register-tiled micro-kernel over a
//     k-major packed copy of the second operand, one panel of two vectors'
//     width at a time. The tile is 4x8 at 4 lanes, 6x16 at 8 lanes (12
//     accumulators, 2 panel vectors and 1 broadcast in 15 of the 16 ymm
//     registers) and 8x32 at 16 lanes (19 of the 32 zmm registers; 6, 8, 12
//     and 14 rows ran alike on a 4-vCPU AVX-512F Xeon, and 8 divides every
//     power-of-two block);
//   - trsm is left-looking: for each block of two vectors' width of columns
//     of X, the micro-kernel takes the final columns k < q0 off the tile in
//     place, and the diagonal triangle is then solved for a vector's width
//     of rows at once over a transposed block;
//   - potrf is a right-looking row update, y[q] -= x * v[q], against a
//     packed column of L.
// A compiler vectorizes a dot product along k only under -ffast-math,
// because that reorders the sum. Running along the row instead keeps each
// output element's IEEE operation sequence exactly as in the plain loop
// nests: the same products, summed in ascending k from zero and subtracted
// once; for trsm, x[q] -= x[k] * L[q][k] in ascending k, then one multiply
// by 1/L[q][q]. Multiply and add also stay separate: no target names
// "fma", and CMake compiles this file with -ffp-contract=off (AVX-512F has
// fused multiply-adds of its own; the no_fma_in_blas test checks the
// object). gemm_nt, syrk and potrf are therefore bit-identical to the ref
// kernels, and the three tables to each other on every kernel; trsm
// multiplies by the reciprocal where ref divides.
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

namespace lanes16 {
constexpr int kLanes = 16;
constexpr int kMr = 8;
constexpr const char* kTableName = "tuned-avx512";
#define SMPSS_TUNED_TARGET __attribute__((target("avx512f")))
#include "blas/tuned_body.inc"
#undef SMPSS_TUNED_TARGET
}  // namespace lanes16
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

const Kernels* tuned_lanes16_kernels() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return &lanes16::kTable;
#endif
  return nullptr;
}

const Kernels& tuned_kernels() noexcept {
  static const Kernels* const widest = [] {
    if (const Kernels* k = tuned_lanes16_kernels()) return k;
    if (const Kernels* k = tuned_lanes8_kernels()) return k;
    return &tuned_lanes4_kernels();
  }();
  return *widest;
}

}  // namespace smpss::blas
