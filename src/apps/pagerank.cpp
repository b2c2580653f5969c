#include "apps/pagerank.hpp"

#include <vector>

namespace smpss::apps {

namespace {

/// SplitMix64 — the implicit edge function. Node u's k-th out-edge targets
/// edge_target(u, k, n); both the tasks and the oracle call exactly this.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline int edge_target(int u, int k, int n) {
  return static_cast<int>(
      mix64((static_cast<std::uint64_t>(u) << 20) | static_cast<unsigned>(k)) %
      static_cast<std::uint64_t>(n));
}

// Damping 85/100 and the (1 - d)/n teleport term, all in exact integer
// arithmetic so any summation order is bit-identical.
inline std::int64_t damp(std::int64_t accum) { return accum * 85 / 100; }
inline std::int64_t teleport(int n) { return kRankScale * 15 / 100 / n; }

/// Scatter the edges of source block [s0, s1) that land in destination block
/// [d0, d1). `src` is the source ranks block (src[i] is node s0 + i), `acc`
/// the destination accumulator block (acc[j] is node d0 + j).
void scatter_block(const std::int64_t* src, std::int64_t* acc, int s0, int s1,
                   int d0, int d1, int degree, int n) {
  for (int u = s0; u < s1; ++u) {
    const std::int64_t share = src[u - s0] / degree;
    for (int k = 0; k < degree; ++k) {
      const int v = edge_target(u, k, n);
      if (v >= d0 && v < d1) acc[v - d0] += share;
    }
  }
}

}  // namespace

PageRankTasks PageRankTasks::register_in(Runtime& rt) {
  PageRankTasks tt;
  tt.zero = rt.register_task_type("pr_zero");
  tt.scatter = rt.register_task_type("pr_scatter");
  tt.apply = rt.register_task_type("pr_apply");
  return tt;
}

void pagerank_init(int n, std::int64_t* ranks) {
  const std::int64_t r0 = kRankScale / n;
  for (int i = 0; i < n; ++i) ranks[i] = r0;
}

void pagerank_seq(int n, int degree, int iters, std::int64_t* ranks) {
  std::vector<std::int64_t> accum(static_cast<std::size_t>(n));
  for (int it = 0; it < iters; ++it) {
    for (int i = 0; i < n; ++i) accum[i] = 0;
    scatter_block(ranks, accum.data(), 0, n, 0, n, degree, n);
    const std::int64_t base = teleport(n);
    for (int i = 0; i < n; ++i) ranks[i] = base + damp(accum[i]);
  }
}

void pagerank_smpss(Runtime& rt, const PageRankTasks& tt, int n, int degree,
                    int iters, int block, std::int64_t* ranks,
                    std::int64_t* accum, bool use_commutative) {
  const int nblocks = (n + block - 1) / block;
  const auto b_lo = [&](int b) { return b * block; };
  const auto b_hi = [&](int b) { return b + 1 == nblocks ? n : (b + 1) * block; };

  for (int it = 0; it < iters; ++it) {
    for (int db = 0; db < nblocks; ++db) {
      const int d0 = b_lo(db), d1 = b_hi(db);
      rt.spawn(tt.zero,
               [cnt = d1 - d0](std::int64_t* a) {
                 for (int j = 0; j < cnt; ++j) a[j] = 0;
               },
               smpss::out(accum + d0, static_cast<std::size_t>(d1 - d0)));
    }
    for (int sb = 0; sb < nblocks; ++sb) {
      const int s0 = b_lo(sb), s1 = b_hi(sb);
      for (int db = 0; db < nblocks; ++db) {
        const int d0 = b_lo(db), d1 = b_hi(db);
        const auto body = [s0, s1, d0, d1, degree, n](const std::int64_t* src,
                                                      std::int64_t* acc) {
          scatter_block(src, acc, s0, s1, d0, d1, degree, n);
        };
        if (use_commutative) {
          rt.spawn(tt.scatter, body,
                   smpss::in(ranks + s0, static_cast<std::size_t>(s1 - s0)),
                   smpss::commutative(accum + d0,
                                      static_cast<std::size_t>(d1 - d0)));
        } else {
          // Paper-faithful lowering: inout chains the writers of one
          // accumulator in spawn order.
          rt.spawn(tt.scatter, body,
                   smpss::in(ranks + s0, static_cast<std::size_t>(s1 - s0)),
                   smpss::inout(accum + d0,
                                static_cast<std::size_t>(d1 - d0)));
        }
      }
    }
    const std::int64_t base = teleport(n);
    for (int db = 0; db < nblocks; ++db) {
      const int d0 = b_lo(db), d1 = b_hi(db);
      rt.spawn(tt.apply,
               [cnt = d1 - d0, base](const std::int64_t* a, std::int64_t* r) {
                 for (int j = 0; j < cnt; ++j) r[j] = base + damp(a[j]);
               },
               smpss::in(accum + d0, static_cast<std::size_t>(d1 - d0)),
               smpss::out(ranks + d0, static_cast<std::size_t>(d1 - d0)));
    }
  }
  rt.barrier();
}

}  // namespace smpss::apps
