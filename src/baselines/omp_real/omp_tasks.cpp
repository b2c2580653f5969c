#include "baselines/omp_real/omp_tasks.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace smpss::ompreal {

#if !defined(_OPENMP)

bool available() noexcept { return false; }
unsigned max_threads() noexcept { return 0; }

#else

bool available() noexcept { return true; }

unsigned max_threads() noexcept {
  return static_cast<unsigned>(omp_get_max_threads());
}

#endif  // _OPENMP

}  // namespace smpss::ompreal
