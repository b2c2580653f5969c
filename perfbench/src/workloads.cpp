#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "apps/cholesky.hpp"
#include "apps/multisort.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "hyper/flat_matrix.hpp"
#include "patterns/driver.hpp"
#include "patterns/oracle.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

namespace {

using smpss::now_ns;
using smpss::seconds_between;

/// Paper Fig. 9/10: get/put tasks over a flat matrix, then spotrf, strsm,
/// ssyrk and sgemm on 128x128 tiles, under the default configuration.
class Cholesky final : public Workload {
 public:
  static constexpr int kN = 2048;
  static constexpr int kBs = 128;
  static constexpr int kNb = kN / kBs;
  /// Blocked (runtime) and unblocked (oracle) factorizations round
  /// differently. fill_spd's matrix is strongly diagonally dominant (2 on
  /// the diagonal, |a_ij| <= 1/n elsewhere), so the factor's entries are
  /// O(1); the two factors of seed 5 differ by at most 2.9e-5.
  static constexpr float kTolerance = 1e-3f;

  explicit Cholesky(std::uint64_t seed)
      : input_(kN), work_(kN), oracle_(kN) {
    smpss::fill_spd(input_, seed);
  }

  const char* name() const noexcept override { return "cholesky"; }
  smpss::Config config() const override { return {}; }

  void register_types(smpss::Runtime& rt) override {
    tt_ = smpss::apps::CholeskyTasks::register_in(rt);
  }

  void reset() override {
    std::memcpy(work_.data(), input_.data(), input_.bytes());
  }

  RoundTimes run(smpss::Runtime& rt, const smpss::blas::Kernels& k) override {
    RoundTimes t;
    t.start_ns = now_ns();
    rc_ = smpss::apps::cholesky_smpss_flat(rt, tt_, kN, work_.data(), kBs, k);
    t.run_s = seconds_between(t.start_ns, now_ns());
    return t;
  }

  bool check() const override {
    return rc_ == 0 && smpss::max_abs_diff_lower(work_, oracle_) <= kTolerance;
  }

  void corrupt() override { work_.at(kN - 1, kN / 2) += 1.0f; }

  std::uint64_t tasks_per_round() const override {
    // Fig. 9: one get per lower-triangle block, one put per block, and per
    // column j: j ssyrk, one spotrf, nb-1-j strsm, j*(nb-1-j) sgemm.
    const std::uint64_t blocks = std::uint64_t{kNb} * (kNb + 1) / 2;
    std::uint64_t compute = 0;
    for (std::uint64_t j = 0; j < kNb; ++j)
      compute += j + 1 + (kNb - 1 - j) + j * (kNb - 1 - j);
    return 2 * blocks + compute;
  }

  std::uint64_t gemm_calls_per_round() const override {
    std::uint64_t n = 0;
    for (std::uint64_t j = 0; j < kNb; ++j) n += j * (kNb - 1 - j);
    return n;
  }
  int gemm_block() const override { return kBs; }

  double run_oracle() override {
    std::memcpy(oracle_.data(), input_.data(), input_.bytes());
    const std::uint64_t t0 = now_ns();
    const int rc = smpss::apps::cholesky_seq_flat(kN, oracle_.data(),
                                                  smpss::blas::tuned_kernels());
    const double s = seconds_between(t0, now_ns());
    if (rc != 0) throw std::runtime_error("cholesky oracle: matrix not SPD");
    return s;
  }

  std::size_t data_bytes() const override { return input_.bytes(); }

 private:
  smpss::FlatMatrix input_, work_, oracle_;
  smpss::apps::CholeskyTasks tt_{};
  int rc_ = 0;
};

/// patterns stencil_1d in address mode, Flat main-thread submission, empty
/// bodies, a two-row image (every write is a WAW/WAR hazard for renaming).
class StencilFine final : public Workload {
 public:
  static constexpr int kWidth = 64;
  static constexpr int kSteps = 1024;
  static constexpr int kFields = 2;

  explicit StencilFine(std::uint64_t seed) {
    spec_.kind = smpss::patterns::PatternKind::Stencil1D;
    spec_.width = kWidth;
    spec_.steps = kSteps;
    spec_.seed = seed;
    spec_.kernel = {smpss::patterns::KernelKind::Empty, 0};
    spec_.validate();
    input_ = smpss::patterns::make_initial_image(spec_, kFields);
  }

  const char* name() const noexcept override { return "stencil_fine"; }
  smpss::Config config() const override { return {}; }

  // submit_pattern registers its point type on every call.
  void register_types(smpss::Runtime&) override {}

  void reset() override { work_ = input_; }

  RoundTimes run(smpss::Runtime& rt, const smpss::blas::Kernels&) override {
    RoundTimes t;
    t.start_ns = now_ns();
    smpss::patterns::submit_pattern(rt, spec_, work_,
                                    smpss::patterns::LowerMode::Address,
                                    smpss::patterns::SubmitShape::Flat);
    const std::uint64_t t1 = now_ns();
    rt.barrier();
    const std::uint64_t t2 = now_ns();
    t.run_s = seconds_between(t.start_ns, t2);
    t.submit_s = seconds_between(t.start_ns, t1);
    t.barrier_s = seconds_between(t1, t2);
    return t;
  }

  bool check() const override { return work_ == oracle_; }

  void corrupt() override { work_.cells[work_.cells.size() / 2] ^= 1; }

  std::uint64_t tasks_per_round() const override {
    return std::uint64_t{kWidth} * kSteps;
  }

  double run_oracle() override {
    const std::uint64_t t0 = now_ns();
    oracle_ = smpss::patterns::run_oracle(spec_, kFields);
    return seconds_between(t0, now_ns());
  }

  std::size_t data_bytes() const override {
    return input_.cells.size() * sizeof(smpss::patterns::Cell);
  }

 private:
  smpss::patterns::PatternSpec spec_;
  smpss::patterns::PatternImage input_, work_, oracle_;
};

/// Multisort over array regions with nested tasks: sort_rec generators
/// submit from workers and taskwait for their quarters.
class MultisortNested final : public Workload {
 public:
  using ELM = smpss::apps::ELM;
  static constexpr long kN = 1L << 22;
  static constexpr long kQuick = 1L << 15;
  static constexpr long kMerge = 1L << 14;

  explicit MultisortNested(std::uint64_t seed)
      : input_(kN), data_(kN), tmp_(kN) {
    smpss::Xoshiro256 rng(seed);
    for (ELM& x : input_) x = static_cast<ELM>(rng.next());
    digest_ = digest(input_);
    count_rec(0, kN - 1);
  }

  const char* name() const noexcept override { return "multisort_nested"; }

  smpss::Config config() const override {
    smpss::Config c;
    c.nested_tasks = true;
    return c;
  }

  void register_types(smpss::Runtime& rt) override {
    tt_ = smpss::apps::MultisortTasks::register_in(rt);
  }

  void reset() override { std::copy(input_.begin(), input_.end(), data_.begin()); }

  RoundTimes run(smpss::Runtime& rt, const smpss::blas::Kernels&) override {
    RoundTimes t;
    t.start_ns = now_ns();
    smpss::apps::multisort_smpss_regions(rt, tt_, data_.data(), tmp_.data(), kN,
                                         kQuick, kMerge);
    t.run_s = seconds_between(t.start_ns, now_ns());
    return t;
  }

  /// Sorted, and the same key multiset as the input.
  bool check() const override {
    return std::is_sorted(data_.begin(), data_.end()) && digest(data_) == digest_;
  }

  void corrupt() override {
    long i = kN / 2;
    while (i + 2 < kN && data_[i] == data_[i + 1]) ++i;
    std::swap(data_[i], data_[i + 1]);
  }

  std::uint64_t tasks_per_round() const override { return tasks_; }

  double run_oracle() override {
    reset();
    const std::uint64_t t0 = smpss::now_ns();
    smpss::apps::multisort_seq(data_.data(), tmp_.data(), kN, kQuick);
    const double s = seconds_between(t0, now_ns());
    if (!check()) throw std::runtime_error("multisort oracle: output not sorted");
    return s;
  }

  std::size_t data_bytes() const override { return 2 * kN * sizeof(ELM); }

  /// Every merged element is read once and written once.
  double merge_bytes_per_round() const override {
    return static_cast<double>(merged_elems_) * 2.0 * sizeof(ELM);
  }

 private:
  /// Order-independent digest of the key multiset.
  static std::uint64_t digest(const std::vector<ELM>& v) {
    std::uint64_t sum = 0;
    for (ELM x : v) {
      std::uint64_t z = static_cast<std::uint64_t>(x) + 0x9E3779B97F4A7C15ull;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      sum += z ^ (z >> 31);
    }
    return sum;
  }

  /// The task tree multisort_smpss_regions builds in nested mode: a leaf
  /// is one seqquick; an inner node spawns four sort_rec generators and
  /// three merges cut into kMerge-element pieces.
  void count_rec(long i, long j) {
    const long size = j - i + 1;
    if (size < kQuick || size < 8) {
      tasks_ += 1;
      return;
    }
    const long q = size / 4;
    const long b[5] = {i, i + q, i + 2 * q, i + 3 * q, j + 1};
    for (int k = 0; k < 4; ++k) {
      tasks_ += 1;
      count_rec(b[k], b[k + 1] - 1);
    }
    for (long len : {b[2] - b[0], b[4] - b[2], b[4] - b[0]}) {
      tasks_ += static_cast<std::uint64_t>((len + kMerge - 1) / kMerge);
      merged_elems_ += static_cast<std::uint64_t>(len);
    }
  }

  std::vector<ELM> input_, data_, tmp_;
  std::uint64_t digest_ = 0;
  std::uint64_t tasks_ = 0;
  std::uint64_t merged_elems_ = 0;
  smpss::apps::MultisortTasks tt_{};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cholesky", "stencil_fine",
                                                 "multisort_nested"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cholesky") return std::make_unique<Cholesky>(seed);
  if (name == "stencil_fine") return std::make_unique<StencilFine>(seed);
  if (name == "multisort_nested") return std::make_unique<MultisortNested>(seed);
  return nullptr;
}

}  // namespace perfbench
