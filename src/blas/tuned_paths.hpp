// The two tables tuned_kernels() chooses between, for tests that must run
// both on one host. Callers that only want the fastest tiles use
// tuned_kernels() from kernels.hpp.
#pragma once

#include "blas/kernels.hpp"

namespace smpss::blas {

/// The 4-lane table (4x8 gemm/syrk tile): what a CPU without AVX2 runs.
const Kernels& tuned_lanes4_kernels() noexcept;

/// The 8-lane AVX2 table (6x16 tile), or nullptr when this CPU lacks AVX2
/// or the build is not for x86.
const Kernels* tuned_lanes8_kernels() noexcept;

}  // namespace smpss::blas
