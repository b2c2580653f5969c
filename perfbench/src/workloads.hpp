// The benchmark's three workloads. Each owns its seed-generated input, a
// working copy the runtime operates on, and the sequential oracle the
// round's output is checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blas/kernels.hpp"
#include "runtime/config.hpp"

namespace smpss {
class Runtime;
}

namespace perfbench {

/// Wall times of one round. run_s spans the first submission call to the
/// return of barrier(); submit_s/barrier_s split it where the workload
/// submits and waits in separate calls (negative where it cannot).
struct RoundTimes {
  std::uint64_t start_ns = 0;  ///< smpss::now_ns() at the first submission
  double run_s = 0.0;
  double submit_s = -1.0;
  double barrier_s = -1.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const noexcept = 0;

  /// The workload's runtime configuration; the caller sets num_threads and
  /// tracing.
  virtual smpss::Config config() const = 0;

  /// Task-type registration on a fresh Runtime (part of set-up).
  virtual void register_types(smpss::Runtime& rt) = 0;

  /// Restore the working copy from the input (outside the timed span).
  virtual void reset() = 0;

  /// One timed round on `rt`; `k` is the kernel table the bodies call.
  virtual RoundTimes run(smpss::Runtime& rt, const smpss::blas::Kernels& k) = 0;

  /// Whether the last round's output matches the oracle.
  virtual bool check() const = 0;

  /// Damage the last round's output the smallest detectable way (one
  /// flipped cell, one swapped key) so the benchmark's own test can show a
  /// bad round is counted as failed.
  virtual void corrupt() = 0;

  /// Tasks one round retires, computed independently of the runtime.
  virtual std::uint64_t tasks_per_round() const = 0;

  /// Run the sequential oracle on the same input; returns its wall time.
  virtual double run_oracle() = 0;

  /// Bytes of program data one round operates on.
  virtual std::size_t data_bytes() const = 0;

  /// Computed work of one round, for the per-layer rates.
  virtual std::uint64_t gemm_calls_per_round() const { return 0; }
  virtual int gemm_block() const { return 0; }
  virtual double merge_bytes_per_round() const { return 0.0; }
};

const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
