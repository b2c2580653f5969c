// The three tables tuned_kernels() chooses between, for tests and benches
// that must run each of them on one host. Callers that only want the
// fastest tiles use tuned_kernels() from kernels.hpp.
#pragma once

#include "blas/kernels.hpp"

namespace smpss::blas {

/// The 4-lane table (4x8 tile): what a CPU without AVX2 runs.
const Kernels& tuned_lanes4_kernels() noexcept;

/// The 8-lane AVX2 table (6x16 tile), or nullptr when this CPU lacks AVX2
/// or the build is not for x86.
const Kernels* tuned_lanes8_kernels() noexcept;

/// The 16-lane AVX-512F table (8x32 tile), or nullptr when this CPU lacks
/// AVX-512F or the build is not for x86.
const Kernels* tuned_lanes16_kernels() noexcept;

}  // namespace smpss::blas
