#include "probe.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <type_traits>
#include <utility>

#include "common/timing.hpp"

namespace perfbench {

namespace {

const smpss::blas::Kernels* g_inner = nullptr;
std::atomic<std::uint64_t> g_ns[kKernelCount];
std::atomic<std::uint64_t> g_calls[kKernelCount];

std::atomic<bool> g_record{false};
std::atomic<std::uint64_t> g_round{0};
std::atomic<std::uint32_t> g_next_track{0};
std::mutex g_spans_mu;
std::vector<Span> g_spans;  // guarded by g_spans_mu

std::uint32_t kernel_track() {
  thread_local const std::uint32_t track =
      kKernelTrackBase + g_next_track.fetch_add(1, std::memory_order_relaxed);
  return track;
}

void account(Kernel k, std::uint64_t t0, std::uint64_t t1) {
  const auto i = static_cast<unsigned>(k);
  g_ns[i].fetch_add(t1 - t0, std::memory_order_relaxed);
  g_calls[i].fetch_add(1, std::memory_order_relaxed);
  if (g_record.load(std::memory_order_relaxed)) {
    const Span s{kernel_name(k), kernel_track(),
                 g_round.load(std::memory_order_relaxed), t0, t1};
    std::lock_guard<std::mutex> lk(g_spans_mu);
    g_spans.push_back(s);
  }
}

/// Times one call of the inner table's entry `Member` as kernel `K`.
template <Kernel K, auto Member, typename... Args>
auto timed(Args... args) {
  const std::uint64_t t0 = smpss::now_ns();
  if constexpr (std::is_void_v<decltype((g_inner->*Member)(args...))>) {
    (g_inner->*Member)(args...);
    account(K, t0, smpss::now_ns());
  } else {
    auto rc = (g_inner->*Member)(args...);
    account(K, t0, smpss::now_ns());
    return rc;
  }
}

using smpss::blas::Kernels;

const Kernels kTimed{
    "timed",
    timed<Kernel::Gemm, &Kernels::gemm_nt_minus, int, const float*,
          const float*, float*>,
    timed<Kernel::Other, &Kernels::gemm_nn_acc, int, const float*,
          const float*, float*>,
    timed<Kernel::Syrk, &Kernels::syrk_ln_minus, int, const float*, float*>,
    timed<Kernel::Trsm, &Kernels::trsm_rltn, int, const float*, float*>,
    timed<Kernel::Potrf, &Kernels::potrf_ln, int, float*>,
    timed<Kernel::Other, &Kernels::add, int, const float*, const float*,
          float*>,
    timed<Kernel::Other, &Kernels::sub, int, const float*, const float*,
          float*>,
};

}  // namespace

const char* kernel_name(Kernel k) noexcept {
  switch (k) {
    case Kernel::Potrf: return "potrf";
    case Kernel::Trsm: return "trsm";
    case Kernel::Syrk: return "syrk";
    case Kernel::Gemm: return "gemm";
    default: return "other";
  }
}

std::uint64_t KernelTotals::total_ns() const noexcept {
  std::uint64_t s = 0;
  for (std::uint64_t v : ns) s += v;
  return s;
}

const Kernels& timed_kernels(const Kernels& inner) {
  g_inner = &inner;
  return kTimed;
}

KernelTotals kernel_totals() noexcept {
  KernelTotals t;
  for (unsigned i = 0; i < kKernelCount; ++i) {
    t.ns[i] = g_ns[i].load(std::memory_order_relaxed);
    t.calls[i] = g_calls[i].load(std::memory_order_relaxed);
  }
  return t;
}

void reset_kernel_totals() noexcept {
  for (unsigned i = 0; i < kKernelCount; ++i) {
    g_ns[i].store(0, std::memory_order_relaxed);
    g_calls[i].store(0, std::memory_order_relaxed);
  }
}

void record_kernel_spans(bool on, std::uint64_t round) noexcept {
  g_round.store(round, std::memory_order_relaxed);
  g_record.store(on, std::memory_order_relaxed);
}

std::vector<Span> take_kernel_spans() {
  std::lock_guard<std::mutex> lk(g_spans_mu);
  return std::exchange(g_spans, {});
}

bool SpanLog::write_chrome_json(const std::string& path,
                                std::uint64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%llu}}",
                 first ? "" : ",\n", s.name.c_str(), s.track,
                 static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.round));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
