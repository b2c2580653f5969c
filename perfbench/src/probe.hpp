// Probes the benchmark attaches to the runtime from outside: a timing-wrapped
// blas::Kernels table (the apps take the kernel table as a parameter, so the
// benchmark passes its own) and an in-memory span log written out at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blas/kernels.hpp"

namespace perfbench {

enum class Kernel : unsigned { Potrf, Trsm, Syrk, Gemm, Other, Count };
inline constexpr unsigned kKernelCount = static_cast<unsigned>(Kernel::Count);
const char* kernel_name(Kernel k) noexcept;

struct KernelTotals {
  std::uint64_t ns[kKernelCount] = {};
  std::uint64_t calls[kKernelCount] = {};
  std::uint64_t total_ns() const noexcept;
};

/// One closed interval on one track (0 = main thread, 1.. = runtime
/// workers, kKernelTrackBase + i = the i-th OS thread that ran a kernel).
struct Span {
  std::string name;
  std::uint32_t track;
  std::uint64_t round;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};
inline constexpr std::uint32_t kKernelTrackBase = 100;

/// A Kernels table whose entries time each call and forward it to `inner`.
/// Its entries are plain function pointers, so the table, its totals and
/// its span buffer are process globals; one inner table at a time.
const smpss::blas::Kernels& timed_kernels(const smpss::blas::Kernels& inner);

/// Kernel time and calls since the last reset. Call both only while no
/// kernel runs (between rounds).
KernelTotals kernel_totals() noexcept;
void reset_kernel_totals() noexcept;

/// When on, every wrapped kernel call also appends a Span (taken with
/// take_kernel_spans, stamped with `round`).
void record_kernel_spans(bool on, std::uint64_t round) noexcept;
std::vector<Span> take_kernel_spans();

/// Spans kept in memory for the whole run and written out once at exit as
/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
class SpanLog {
 public:
  void add(const Span& s) { spans_.push_back(s); }
  void append(const std::vector<Span>& v) {
    spans_.insert(spans_.end(), v.begin(), v.end());
  }
  bool empty() const noexcept { return spans_.empty(); }
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path, std::uint64_t origin_ns) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
