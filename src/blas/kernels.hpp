// Single-threaded BLAS-like block kernels — the tile implementations of the
// paper's experiments.
//
// The paper implements its linear-algebra tasks "using highly tuned BLAS
// libraries": non-threaded Goto BLAS 1.20 and non-threaded MKL 9.1. Neither
// is available offline, so we provide two of our own variants that preserve
// the experiments' two-curve structure:
//
//   Variant::Ref    plain loop nests            (plays the "MKL tiles" role)
//   Variant::Tuned  vector types along the      (plays the "Goto tiles" role)
//                   output row, over a packed operand: 16 floats on a CPU
//                   with AVX-512F, else 8 with AVX2, else 4 (the widest
//                   table the CPU runs, picked once per process)
//
// Tuned's Cholesky kernels keep each output element's IEEE operation order
// (products summed in ascending k from zero, then subtracted once, with no
// fused multiply-add), so gemm_nt_minus, syrk_ln_minus and potrf_ln are
// bit-identical to Ref's at every width, and the three widths agree on every
// kernel. trsm_rltn solves on register tiles, left-looking, but keeps each
// element's order too: x[q] -= x[k] * L[q][k] in ascending k, then one
// multiply by 1/L[q][q], where Ref divides by L[q][q].
//
// All kernels operate on dense row-major m x m blocks. Naming follows BLAS:
// nt = A * B^T, nn = A * B, l = lower triangular, r = right side.
#pragma once

namespace smpss::blas {

/// Kernel bundle used as the task bodies of the linear-algebra apps.
struct Kernels {
  const char* name;

  /// C -= A * B^T (the Cholesky trailing update: sgemm_t of Fig. 2/4).
  void (*gemm_nt_minus)(int m, const float* a, const float* b, float* c);

  /// C += A * B (the hyper-matrix multiplication: sgemm_t of Fig. 1).
  void (*gemm_nn_acc)(int m, const float* a, const float* b, float* c);

  /// C(lower) -= A * A^T (ssyrk_t of Fig. 2/4; only the lower triangle of C
  /// is written, as the subsequent spotrf_t only reads the lower triangle).
  void (*syrk_ln_minus)(int m, const float* a, float* c);

  /// X <- X * L^-T with L lower triangular (strsm_t of Fig. 2/4).
  void (*trsm_rltn)(int m, const float* l, float* x);

  /// In-place lower Cholesky factorization of a block (spotrf_t). Returns 0
  /// on success, or 1 + the index of the first non-positive pivot.
  int (*potrf_ln)(int m, float* a);

  /// C = A + B and C = A - B (Strassen's block additions).
  void (*add)(int m, const float* a, const float* b, float* c);
  void (*sub)(int m, const float* a, const float* b, float* c);
};

enum class Variant { Ref, Tuned };

const Kernels& ref_kernels() noexcept;
const Kernels& tuned_kernels() noexcept;
const Kernels& kernels(Variant v) noexcept;
const char* to_string(Variant v) noexcept;

}  // namespace smpss::blas
