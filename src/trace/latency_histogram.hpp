// Log-bucketed latency histogram for the service-mode latency tier.
//
// The batch engine's benches are throughput-only; a long-lived service is
// judged on tail latency (task-bench's methodology reports both). This
// histogram makes p50/p99 submit-to-retire latency observable at a cost the
// retire fast path can afford: one relaxed fetch_add per sample, no locks,
// no allocation. Buckets are quarter-octave (4 linear sub-buckets per
// power of two), so a reported percentile is within ~12% of the true value —
// plenty for a regression gate, useless for calibration-grade timing.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

namespace smpss {

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 2;           // 4 sub-buckets/octave
  static constexpr unsigned kSub = 1u << kSubBits;
  static constexpr unsigned kBuckets = 16 + (64 - 4) * kSub;  // 256

  /// Bucket of a nanosecond sample: values < 16 get an exact bucket each;
  /// above that, the octave of the leading bit plus the next two bits.
  static unsigned index(std::uint64_t ns) noexcept {
    if (ns < 16) return static_cast<unsigned>(ns);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(ns));
    const unsigned sub =
        static_cast<unsigned>(ns >> (msb - kSubBits)) & (kSub - 1);
    return 16 + (msb - 4) * kSub + sub;
  }

  /// Upper bound (ns) of bucket `b` — the value percentile() reports, so
  /// estimates err toward "slower", never hiding a regression.
  static std::uint64_t bucket_bound(unsigned b) noexcept {
    if (b < 16) return b;
    const unsigned msb = 4 + (b - 16) / kSub;
    const unsigned sub = (b - 16) % kSub;
    const std::uint64_t step = std::uint64_t(1) << (msb - kSubBits);
    return (std::uint64_t(1) << msb) + (sub + 1) * step - 1;
  }

  void record(std::uint64_t ns) noexcept {
    buckets_[index(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  /// Latency (ns) at quantile `q` in [0, 1]; 0 when empty. Racy by design
  /// (monitoring reads concurrent with recording) — each bucket load is
  /// atomic, the sum is a snapshot-in-passing.
  std::uint64_t percentile(double q) const noexcept {
    std::uint64_t counts[kBuckets];
    std::uint64_t total = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      counts[b] = buckets_[b].load(std::memory_order_relaxed);
      total += counts[b];
    }
    return percentile_of(counts, q, total);
  }

  /// Accumulate this histogram into `out[kBuckets]` (merged service-wide
  /// percentiles across streams).
  void merge_into(std::uint64_t* out) const noexcept {
    for (unsigned b = 0; b < kBuckets; ++b)
      out[b] += buckets_[b].load(std::memory_order_relaxed);
  }

  /// percentile() over a merged bucket array.
  static std::uint64_t percentile_of(const std::uint64_t* counts, double q,
                                     std::uint64_t total) noexcept {
    if (total == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    std::uint64_t rank = static_cast<std::uint64_t>(q * double(total - 1));
    for (unsigned b = 0; b < kBuckets; ++b) {
      if (rank < counts[b]) return bucket_bound(b);
      rank -= counts[b];
    }
    return bucket_bound(kBuckets - 1);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

}  // namespace smpss
