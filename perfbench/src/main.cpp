// perfbench — the repository benchmark (see ../README.md).
//
//   perfbench --workload <cholesky|stencil_fine|multisort_nested|all>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans <prefix>] [--commit <id>] [--corrupt-round <i>]
//
// --trace 0: kSetups times, set a Runtime up (constructor, task-type
// registration, warm-up rounds) and time rounds on it for a kSetups-th of
// --seconds. Every round is checked against the sequential oracle outside
// its timed span. Prints the end-to-end metrics.
//
// --trace 1: half the time as above (the baseline of trace.overhead_frac),
// then one more Runtime with Config::tracing on and the timing-wrapped
// kernel table for the other half. Prints the per-layer metrics and, with
// --spans, writes the spans as Chrome trace-event JSON.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics. Lines before it are the run's stamp and one line per metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "blas/kernels.hpp"
#include "common/affinity.hpp"
#include "common/timing.hpp"
#include "probe.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using smpss::Config;
using smpss::now_ns;
using smpss::Runtime;
using smpss::seconds_between;
using smpss::StatsSnapshot;
using smpss::blas::Kernels;

/// Set-ups per run, each followed by its share of the timed rounds;
/// setup_s is their median.
constexpr int kSetups = 5;
/// Warm-up rounds per set-up: at least kMinWarmup, then until a round
/// allocates no pool slab, at most kMaxWarmup.
constexpr int kMinWarmup = 2;
constexpr int kMaxWarmup = 8;
/// run_s_tail is the p90 round time. Untraced runs time at least
/// kMinRounds rounds so that at least ten lie beyond it; --seconds is
/// stretched for that up to kMaxStretch times.
constexpr double kTailPct = 90.0;
constexpr std::size_t kMinRounds = 100;
constexpr std::size_t kMinTracedRounds = 10;
constexpr double kMaxStretch = 1.5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;               ///< --spans prefix; empty = no span file
  std::string commit = "unknown";  ///< stamped as given
  long corrupt_round = -1;         ///< timed round whose output is damaged
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> --seed "
               "<n> --seconds <s> --trace <0|1> [--spans <prefix>] [--commit "
               "<id>] [--corrupt-round <i>]\n",
               msg.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[i + 1];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--spans") o.spans = v;
      else if (flag == "--commit") o.commit = v;
      else if (flag == "--corrupt-round") o.corrupt_round = std::stol(v);
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// --- counters ------------------------------------------------------------------

/// The Runtime::stats() counters the per-layer metrics difference.
#define PERFBENCH_COUNTERS(X)                                              \
  X(tasks_executed) X(raw_edges) X(war_edges) X(waw_edges) X(renames)      \
  X(in_place_reuses) X(copyback_bytes) X(region_accesses)                  \
  X(lockfree_cas_retries) X(steals) X(steal_attempts) X(locality_hits)     \
  X(locality_misses) X(idle_sleeps) X(idle_ns) X(chained_executions)       \
  X(batched_releases) X(wakeups_suppressed) X(pool_slabs) X(taskwaits)

struct Counts {
#define PERFBENCH_FIELD(f) std::uint64_t f = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

  static Counts between(const StatsSnapshot& a, const StatsSnapshot& b) {
    Counts d;
#define PERFBENCH_DIFF(f) d.f = b.f - a.f;
    PERFBENCH_COUNTERS(PERFBENCH_DIFF)
#undef PERFBENCH_DIFF
    return d;
  }

  Counts& operator+=(const Counts& o) {
#define PERFBENCH_ADD(f) f += o.f;
    PERFBENCH_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    return *this;
  }
};

// --- rounds ----------------------------------------------------------------------

/// Rounds attempted and failed. A round fails on an oracle mismatch, a
/// task-count mismatch or an exception; after an exception the Runtime's
/// state is unknown, so the run stops.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool aborted = false;
  std::string first_failure;

  void add(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

/// One checked round: restore the input, run it, then compare the task
/// count and the output with the oracle, both outside the timed span.
Counts play_round(Workload& w, Runtime& rt, const Kernels& k, bool corrupt,
                  RoundTimes& t, Tally& tally) {
  w.reset();
  const StatsSnapshot s0 = rt.stats();
  std::string why;
  try {
    t = w.run(rt, k);
  } catch (const std::exception& e) {
    why = std::string("exception: ") + e.what();
    tally.aborted = true;
  }
  const Counts d = Counts::between(s0, rt.stats());
  if (why.empty()) {
    if (corrupt) w.corrupt();
    if (d.tasks_executed != w.tasks_per_round())
      why = "task count " + std::to_string(d.tasks_executed) + " != " +
            std::to_string(w.tasks_per_round());
    else if (!w.check())
      why = "oracle mismatch";
  }
  tally.add(why);
  return d;
}

struct Setup {
  std::unique_ptr<Runtime> rt;
  double ctor_s = 0.0;
  double setup_s = 0.0;  ///< ctor + registration + warm-up rounds
};

/// Construct, register and warm up until the lazy costs are paid: first
/// touches of the working copies, slab- and rename-pool growth. A round
/// that allocated no pool slab is the sign.
Setup set_up(Workload& w, const Config& cfg, const Kernels& k, Tally& tally) {
  Setup s;
  const std::uint64_t t0 = now_ns();
  s.rt = std::make_unique<Runtime>(cfg);
  s.ctor_s = seconds_between(t0, now_ns());
  w.register_types(*s.rt);
  s.setup_s = seconds_between(t0, now_ns());
  for (int r = 0; r < kMaxWarmup && !tally.aborted; ++r) {
    RoundTimes t;
    const Counts d = play_round(w, *s.rt, k, false, t, tally);
    s.setup_s += t.run_s;
    if (r + 1 >= kMinWarmup && d.pool_slabs == 0) break;
  }
  return s;
}

/// Timed rounds of one Runtime.
struct Phase {
  std::vector<RoundTimes> rounds;
  Counts sum;
  std::vector<double> rename_ratio;  ///< per round that renamed or reused
  std::uint64_t rename_bytes_peak = 0;
  // traced phases only
  double body_s = 0.0;
  std::map<std::string, double> body_s_by_type;
  KernelTotals kernels;

  double total_s() const {
    double s = 0.0;
    for (const RoundTimes& r : rounds) s += r.run_s;
    return s;
  }
};

/// Times rounds of `rt` for `seconds` (stretched up to kMaxStretch times
/// until `min_rounds` rounds ran) and appends them to `p`. Round indices
/// (for --corrupt-round and the spans) count on across calls.
void measure(Workload& w, Runtime& rt, const Kernels& k, double seconds,
             std::size_t min_rounds, long corrupt_round, SpanLog* spans,
             Tally& tally, Phase& p) {
  const bool traced = rt.tracer().enabled();
  std::vector<Span> last_round;  // bodies and kernels of the latest round
  const std::size_t first = p.rounds.size();
  const std::uint64_t t0 = now_ns();
  const auto want = static_cast<std::uint64_t>(seconds * 1e9);
  const auto cap = static_cast<std::uint64_t>(seconds * kMaxStretch * 1e9);
  while (!tally.aborted) {
    const std::uint64_t elapsed = now_ns() - t0;
    if (elapsed >= cap ||
        (elapsed >= want && p.rounds.size() - first >= min_rounds))
      break;
    const std::uint64_t idx = p.rounds.size();
    if (traced) {
      rt.tracer().clear();
      reset_kernel_totals();
      record_kernel_spans(spans != nullptr, idx);
    }
    RoundTimes t;
    const Counts d = play_round(w, rt, k, static_cast<long>(idx) == corrupt_round,
                                t, tally);
    p.rounds.push_back(t);
    p.sum += d;
    if (d.renames + d.in_place_reuses > 0)
      p.rename_ratio.push_back(static_cast<double>(d.renames) /
                               static_cast<double>(d.renames + d.in_place_reuses));
    if (!traced) continue;

    record_kernel_spans(false, idx);
    const KernelTotals kt = kernel_totals();
    for (unsigned i = 0; i < kKernelCount; ++i) {
      p.kernels.ns[i] += kt.ns[i];
      p.kernels.calls[i] += kt.calls[i];
    }
    last_round.clear();
    // Bodies nest on one thread (a task in taskwait runs others), so a
    // body's self time is its span minus the bodies nested in it.
    const std::vector<smpss::TraceEvent> ev = rt.tracer().collect();
    std::vector<double> self(ev.size(), 0.0);
    std::vector<std::vector<std::size_t>> open(rt.num_threads());
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const smpss::TraceEvent& e = ev[i];
      const double s = seconds_between(e.start_ns, e.end_ns);
      std::vector<std::size_t>& stack = open[e.worker];
      while (!stack.empty() && ev[stack.back()].end_ns <= e.start_ns)
        stack.pop_back();
      self[i] += s;
      if (!stack.empty()) self[stack.back()] -= s;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const std::string& type = rt.task_types()[ev[i].type_id].name;
      p.body_s += self[i];
      p.body_s_by_type[type] += self[i];
      if (spans != nullptr)
        last_round.push_back(
            Span{type, ev[i].worker, idx, ev[i].start_ns, ev[i].end_ns});
    }
    if (spans == nullptr) continue;
    const std::vector<Span> ks = take_kernel_spans();
    last_round.insert(last_round.end(), ks.begin(), ks.end());
    const std::uint64_t end = t.start_ns + static_cast<std::uint64_t>(t.run_s * 1e9);
    spans->add(Span{"round", 0, idx, t.start_ns, end});
    if (t.submit_s >= 0.0) {
      const std::uint64_t mid =
          t.start_ns + static_cast<std::uint64_t>(t.submit_s * 1e9);
      spans->add(Span{"submit", 0, idx, t.start_ns, mid});
      spans->add(Span{"barrier", 0, idx, mid, end});
    }
  }
  if (spans != nullptr) spans->append(last_round);
  p.rename_bytes_peak =
      std::max(p.rename_bytes_peak, rt.stats().rename_bytes_peak);
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted `v`.
double percentile(const std::vector<double>& v, double pct) {
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Interquartile range (nearest rank); 0 for fewer than two values.
double iqr(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  return percentile(v, 75) - percentile(v, 25);
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- output ------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< on the metric's own line only
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();  // drop the NUL padding
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_stamp(const Options& opt, const Workload& w, unsigned threads) {
  std::printf(
      "stamp {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%u,\"cpu\":%s,\"compiler\":%s,\"build_type\":%s,"
      "\"flags\":%s,\"commit\":%s,\"data_bytes\":%zu,\"l2_bytes\":%ld,"
      "\"l3_bytes\":%ld}\n",
      json_string(w.name()).c_str(), static_cast<unsigned long long>(opt.seed),
      num(opt.seconds).c_str(), opt.trace ? 1 : 0, threads,
      json_string(cpu_model()).c_str(), json_string(compiler()).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(), json_string(opt.commit).c_str(),
      w.data_bytes(), sysconf(_SC_LEVEL2_CACHE_SIZE),
      sysconf(_SC_LEVEL3_CACHE_SIZE));
}

void print_metric(const Workload& w, const Metric& m) {
  std::printf("%-17s %-34s %16s %-8s %s\n", w.name(), m.name.c_str(),
              num(m.value).c_str(), m.unit.c_str(), m.note.c_str());
}

// --- metrics -----------------------------------------------------------------------

std::vector<Metric> end_to_end(const Phase& p,
                               const std::vector<double>& setup_s,
                               const Tally& tally) {
  std::vector<double> run;
  for (const RoundTimes& r : p.rounds) run.push_back(r.run_s);
  std::sort(run.begin(), run.end());
  const double tail = run.empty() ? 0.0 : percentile(run, kTailPct);
  const auto beyond = static_cast<long>(
      run.size() - static_cast<std::size_t>(std::ceil(kTailPct / 100.0 *
                                                      static_cast<double>(run.size()))));
  return {
      {"run_s", "s", median(run),
       "median of " + std::to_string(run.size()) + " timed rounds"},
      {"run_s_tail", "s", tail,
       "p" + num(kTailPct) + ", " + std::to_string(beyond) + " rounds beyond it"},
      {"tasks_per_s", "1/s",
       ratio(static_cast<double>(p.sum.tasks_executed), p.total_s()),
       "tasks_executed delta / summed round time"},
      {"setup_s", "s", median(setup_s),
       "median of " + std::to_string(setup_s.size()) +
           " set-ups: ctor + registration + warm-up"},
      {"peak_rss_mb", "MiB", peak_rss_mib(), "process peak RSS (getrusage)"},
      {"failed_ratio", "ratio",
       ratio(static_cast<double>(tally.failed),
             static_cast<double>(tally.attempted)),
       std::to_string(tally.failed) + "/" + std::to_string(tally.attempted) +
           " rounds; carried by the result's failed/attempted"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const Phase& plain,
                              const Phase& tp, unsigned threads,
                              const std::vector<double>& ctor_s,
                              double oracle_s) {
  const double rounds = static_cast<double>(tp.rounds.size());
  const double tasks = static_cast<double>(tp.sum.tasks_executed);
  const double ktasks = tasks / 1000.0;
  const double thread_s = threads * tp.total_s();
  const Counts& c = tp.sum;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  std::vector<double> submit, barrier, traced_run, plain_run;
  for (const RoundTimes& r : tp.rounds) {
    traced_run.push_back(r.run_s);
    if (r.submit_s >= 0.0) {
      submit.push_back(r.submit_s);
      barrier.push_back(r.barrier_s);
    }
  }
  for (const RoundTimes& r : plain.rounds) plain_run.push_back(r.run_s);
  double submit_sum = 0.0;
  for (double s : submit) submit_sum += s;

  const std::string exact = "[exact]";
  const std::string timing = "[timing-dependent]";
  // Not every layer is on every workload's path; those metrics read 0 and
  // say why on their line.
  auto on = [](bool ok, const std::string& kind, const std::string& why) {
    return ok ? kind : kind + " n/a: " + why;
  };
  const bool split = !submit.empty();
  const std::string no_split = std::string(w.name()) +
                               " submits and waits inside one library call";
  const bool blas = w.gemm_calls_per_round() > 0;
  const std::string no_blas = std::string(w.name()) + " calls no blas kernel";
  const bool sort = w.merge_bytes_per_round() > 0.0;
  const std::string no_sort =
      std::string(w.name()) + " runs no multisort task";

  const KernelTotals& k = tp.kernels;
  auto kern_ns = [&](Kernel kk) { return d(k.ns[static_cast<unsigned>(kk)]); };
  const double gemm_calls = d(k.calls[static_cast<unsigned>(Kernel::Gemm)]);
  const double m = w.gemm_block();
  const auto type_s = [&](const char* t) {
    const auto it = tp.body_s_by_type.find(t);
    return it == tp.body_s_by_type.end() ? 0.0 : it->second;
  };
  const double idle_s = d(c.idle_ns) * 1e-9;

  return {
      {"runtime.ctor_s", "s", median(ctor_s), timing},
      {"runtime.tasks_per_round", "count", ratio(tasks, rounds), exact},
      {"runtime.submit_ns_per_task", "ns", ratio(submit_sum * 1e9, tasks),
       on(split, timing, no_split)},
      {"runtime.barrier_tail_s", "s", median(barrier), on(split, timing, no_split)},
      {"runtime.worker_overhead_frac", "frac",
       1.0 - ratio(tp.body_s + idle_s, thread_s),
       timing + " 1 - (body self time + idle) / (threads x round time)"},
      {"runtime.chained_ratio", "ratio", ratio(d(c.chained_executions), tasks),
       timing},
      {"runtime.pool_slabs_per_round", "count", ratio(d(c.pool_slabs), rounds),
       timing},
      {"runtime.taskwaits_per_round", "count", ratio(d(c.taskwaits), rounds),
       exact},
      {"dep.edges_per_task", "ratio",
       ratio(d(c.raw_edges + c.war_edges + c.waw_edges), tasks), timing},
      {"dep.rename_ratio", "ratio",
       ratio(d(c.renames), d(c.renames + c.in_place_reuses)),
       timing + " per-round IQR " + num(iqr(tp.rename_ratio)) +
           "; never a count claim"},
      {"dep.rename_ratio_iqr", "ratio", iqr(tp.rename_ratio), timing},
      {"dep.rename_bytes_peak", "B", d(tp.rename_bytes_peak), timing},
      {"dep.copyback_bytes_per_round", "B", ratio(d(c.copyback_bytes), rounds),
       timing},
      {"dep.region_accesses_per_task", "ratio",
       ratio(d(c.region_accesses), tasks), exact},
      {"dep.cas_retries_per_ktask", "1/ktask",
       ratio(d(c.lockfree_cas_retries), ktasks), timing},
      {"sched.idle_frac", "frac", ratio(idle_s, thread_s), timing},
      {"sched.steal_ratio", "ratio", ratio(d(c.steals), d(c.steal_attempts)),
       timing},
      {"sched.steals_per_ktask", "1/ktask", ratio(d(c.steals), ktasks), timing},
      {"sched.locality_hit_ratio", "ratio",
       ratio(d(c.locality_hits), d(c.locality_hits + c.locality_misses)),
       timing},
      {"sched.idle_sleeps_per_ktask", "1/ktask", ratio(d(c.idle_sleeps), ktasks),
       timing},
      {"sched.batched_releases_per_ktask", "1/ktask",
       ratio(d(c.batched_releases), ktasks), timing},
      {"sched.wakeups_suppressed_per_ktask", "1/ktask",
       ratio(d(c.wakeups_suppressed), ktasks), timing},
      {"blas.busy_frac", "frac", ratio(d(k.total_ns()) * 1e-9, thread_s),
       on(blas, timing, no_blas)},
      {"blas.gemm_gflops", "GFLOP/s",
       ratio(gemm_calls * 2.0 * m * m * m, kern_ns(Kernel::Gemm)),
       on(blas, timing + " computed flops, 2 m^3 per call", no_blas)},
      {"blas.potrf_s", "s", ratio(kern_ns(Kernel::Potrf) * 1e-9, rounds),
       on(blas, timing, no_blas)},
      {"blas.trsm_s", "s", ratio(kern_ns(Kernel::Trsm) * 1e-9, rounds),
       on(blas, timing, no_blas)},
      {"blas.syrk_s", "s", ratio(kern_ns(Kernel::Syrk) * 1e-9, rounds),
       on(blas, timing, no_blas)},
      {"blas.gemm_s", "s", ratio(kern_ns(Kernel::Gemm) * 1e-9, rounds),
       on(blas, timing, no_blas)},
      {"blas.gemm_calls", "count", ratio(gemm_calls, rounds),
       on(blas, exact, no_blas)},
      {"apps.seqquick_s", "s", ratio(type_s("seqquick"), rounds),
       on(sort, timing, no_sort)},
      {"apps.seqmerge_s", "s", ratio(type_s("seqmerge"), rounds),
       on(sort, timing, no_sort)},
      {"apps.merge_gbps_computed", "GB/s",
       ratio(w.merge_bytes_per_round() * rounds * 1e-9, type_s("seqmerge")),
       on(sort, timing + " computed bytes, 8 read + 8 written per element",
          no_sort)},
      {"trace.overhead_frac", "frac",
       ratio(median(traced_run), median(plain_run)) - 1.0,
       timing + " traced run_s / untraced run_s - 1"},
      {"control.seq_s", "s", oracle_s,
       timing + " sequential oracle, no runtime code"},
  };
}

// --- one workload ------------------------------------------------------------------

struct Result {
  std::vector<Metric> metrics;
  Tally tally;
};

Result run_workload(const std::string& name, const Options& opt,
                    unsigned threads) {
  std::unique_ptr<Workload> w = make_workload(name, opt.seed);
  print_stamp(opt, *w, threads);
  std::fflush(stdout);

  // Input generation and the oracle are the benchmark's own work: outside
  // set-up and outside every timed span.
  const double oracle_s = w->run_oracle();

  Config cfg = w->config();
  cfg.num_threads = threads;
  const Kernels& plain_k = smpss::blas::tuned_kernels();
  Result res;
  // Untimed-tracing rounds: the whole run untraced, or the first half of a
  // traced run. They are spread over kSetups Runtimes, set up and measured
  // one after the other, so no single instance's luck decides the median.
  const double plain_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::size_t min_rounds = opt.trace ? kMinTracedRounds : kMinRounds;
  std::vector<double> ctor_s, setup_s;
  Phase plain;
  for (int i = 0; i < kSetups && !res.tally.aborted; ++i) {
    Setup s = set_up(*w, cfg, plain_k, res.tally);
    ctor_s.push_back(s.ctor_s);
    setup_s.push_back(s.setup_s);
    measure(*w, *s.rt, plain_k, plain_s / kSetups,
            (min_rounds + kSetups - 1) / kSetups, opt.corrupt_round, nullptr,
            res.tally, plain);
  }

  if (!opt.trace) {
    res.metrics = end_to_end(plain, setup_s, res.tally);
  } else {
    cfg.tracing = true;
    const Kernels& timed_k = timed_kernels(plain_k);
    Setup traced = set_up(*w, cfg, timed_k, res.tally);
    SpanLog spans;
    Phase tp;
    measure(*w, *traced.rt, timed_k, opt.seconds / 2, kMinTracedRounds, -1,
            opt.spans.empty() ? nullptr : &spans, res.tally, tp);
    const std::uint64_t origin = traced.rt->tracer().origin_ns();
    traced.rt.reset();
    res.metrics = per_layer(*w, plain, tp, threads, ctor_s, oracle_s);
    if (!opt.spans.empty()) {
      const std::string path = opt.spans + "-" + name + ".json";
      if (!spans.write_chrome_json(path, origin))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      else
        std::printf("spans written to %s\n", path.c_str());
    }
  }

  for (const Metric& m : res.metrics) print_metric(*w, m);
  if (!res.tally.first_failure.empty())
    std::printf("%-17s first failure: %s\n", w->name(),
                res.tally.first_failure.c_str());
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  std::vector<std::string> names;
  if (opt.workload == "all") {
    names = workload_names();
  } else {
    const auto& known = workload_names();
    if (std::find(known.begin(), known.end(), opt.workload) == known.end())
      usage("unknown workload " + opt.workload);
    names = {opt.workload};
  }
  const unsigned threads = smpss::hardware_concurrency();

  try {
    std::uint64_t attempted = 0, failed = 0;
    bool aborted = false;
    std::string metrics;
    for (const std::string& name : names) {
      const Result r = run_workload(name, opt, threads);
      attempted += r.tally.attempted;
      failed += r.tally.failed;
      aborted = aborted || r.tally.aborted;
      for (const Metric& m : r.metrics) {
        // failed_ratio is carried by the result's failed/attempted fields.
        if (m.name == "failed_ratio") continue;
        const std::string key = names.size() > 1 ? name + "." + m.name : m.name;
        metrics += (metrics.empty() ? "" : ", ") + json_string(key) +
                   ": {\"value\": " + num(m.value) +
                   ", \"unit\": " + json_string(m.unit) + "}";
      }
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        failed == 0 && !aborted && attempted > 0 ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
