// The BLAS tile kernels alone: µs per call and GFLOP/s of every kernel of
// every table this CPU runs (ref, and the tuned table at 4, 8 and 16 lanes),
// on one thread, at perfbench's tile (m = 128) and fig08's block sizes
// 32…512. Not part of the CI gate; it measures the layer that Figs. 8–11
// put under the runtime. The GFLOP counter is a rate: "GFLOP=56.1/s".
//
//     ./build/bench/blas_kernels --benchmark_filter='lanes16/.*/128'
//
// Each call gets fresh inputs, copied outside the timed span: trsm and
// potrf work in place, and repeated solves would drift into denormals.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

#include "blas/kernels.hpp"
#include "blas/tuned_paths.hpp"
#include "common/timing.hpp"
#include "hyper/flat_matrix.hpp"

namespace {

using namespace smpss;

enum class Op { GemmNt, GemmNn, Syrk, Trsm, Potrf, Add, Sub };

struct OpInfo {
  Op op;
  const char* name;
};

constexpr OpInfo kOps[] = {
    {Op::GemmNt, "gemm_nt_minus"}, {Op::GemmNn, "gemm_nn_acc"},
    {Op::Syrk, "syrk_ln_minus"},   {Op::Trsm, "trsm_rltn"},
    {Op::Potrf, "potrf_ln"},       {Op::Add, "add"},
    {Op::Sub, "sub"}};

/// Floating-point operations of one call on m x m blocks.
double flops(Op op, double m) {
  switch (op) {
    case Op::GemmNt:
    case Op::GemmNn: return 2 * m * m * m;
    case Op::Syrk: return m * m * (m + 1);
    case Op::Trsm: return m * m * m;
    case Op::Potrf: return m * m * m / 3;
    case Op::Add:
    case Op::Sub: break;
  }
  return m * m;
}

void BM_Kernel(benchmark::State& state, const blas::Kernels* k, Op op) {
  const int m = static_cast<int>(state.range(0));
  FlatMatrix a(m), b(m), c(m), spd(m), out(m);
  fill_random(a, 1);
  fill_random(b, 2);
  fill_random(c, 3);
  fill_spd(spd, 4);
  FlatMatrix l(spd);
  blas::ref_kernels().potrf_ln(m, l.data());  // trsm's L
  const FlatMatrix& in = op == Op::Trsm ? a : op == Op::Potrf ? spd : c;
  for (auto _ : state) {
    std::memcpy(out.data(), in.data(), in.bytes());
    const auto t0 = now_ns();
    switch (op) {
      case Op::GemmNt: k->gemm_nt_minus(m, a.data(), b.data(), out.data()); break;
      case Op::GemmNn: k->gemm_nn_acc(m, a.data(), b.data(), out.data()); break;
      case Op::Syrk: k->syrk_ln_minus(m, a.data(), out.data()); break;
      case Op::Trsm: k->trsm_rltn(m, l.data(), out.data()); break;
      case Op::Potrf: benchmark::DoNotOptimize(k->potrf_ln(m, out.data())); break;
      case Op::Add: k->add(m, a.data(), b.data(), out.data()); break;
      case Op::Sub: k->sub(m, a.data(), b.data(), out.data()); break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    state.SetIterationTime(seconds_between(t0, now_ns()));
  }
  state.counters["GFLOP"] = benchmark::Counter(
      flops(op, m) / 1e9, benchmark::Counter::kIsIterationInvariantRate);
}

const bool kRegistered = [] {
  struct Table {
    const char* label;
    const blas::Kernels* k;
  };
  const Table tables[] = {{"ref", &blas::ref_kernels()},
                          {"lanes4", &blas::tuned_lanes4_kernels()},
                          {"lanes8", blas::tuned_lanes8_kernels()},
                          {"lanes16", blas::tuned_lanes16_kernels()}};
  for (const Table& t : tables) {
    if (t.k == nullptr) continue;  // this CPU cannot run the table
    for (const OpInfo& o : kOps)
      benchmark::RegisterBenchmark(
          (std::string("BlasKernels/") + t.label + "/" + o.name).c_str(),
          BM_Kernel, t.k, o.op)
          ->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
          ->UseManualTime()->Unit(benchmark::kMicrosecond);
  }
  return true;
}();

}  // namespace
