#include "blas/threaded_blas.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/aligned_alloc.hpp"
#include "common/check.hpp"

namespace smpss::blas {

namespace {

/// Gather a bs x bs tile of a flat matrix into contiguous storage.
void pack_tile(int n, const float* a, int i0, int j0, int bs, float* tile) {
  for (int i = 0; i < bs; ++i)
    std::memcpy(tile + i * bs, a + (i0 + i) * n + j0,
                sizeof(float) * static_cast<std::size_t>(bs));
}

/// Scatter a contiguous tile back into a flat matrix.
void unpack_tile(int n, float* a, int i0, int j0, int bs, const float* tile) {
  for (int i = 0; i < bs; ++i)
    std::memcpy(a + (i0 + i) * n + j0, tile + i * bs,
                sizeof(float) * static_cast<std::size_t>(bs));
}

struct TileBuf {
  explicit TileBuf(int bs)
      : p(static_cast<float*>(aligned_alloc_bytes(
            sizeof(float) * static_cast<std::size_t>(bs) * bs, 64))) {}
  ~TileBuf() { aligned_free_bytes(p); }
  TileBuf(const TileBuf&) = delete;
  TileBuf& operator=(const TileBuf&) = delete;
  float* p;
};

}  // namespace

void ThreadedBlas::gemm_nn_acc_flat(int n, const float* a, const float* b,
                                    float* c) {
  const unsigned nt = pool_.size();
  // Row-panel decomposition: contiguous chunks, one per thread, processed in
  // k-strips for cache reuse of b.
  pool_.run([&](unsigned tid) {
    int rows_per = (n + static_cast<int>(nt) - 1) / static_cast<int>(nt);
    int r0 = static_cast<int>(tid) * rows_per;
    int r1 = std::min(n, r0 + rows_per);
    constexpr int kStrip = 64;
    for (int i = r0; i < r1; ++i) {
      float* ci = c + static_cast<std::size_t>(i) * n;
      for (int k0 = 0; k0 < n; k0 += kStrip) {
        int k1 = std::min(n, k0 + kStrip);
        for (int k = k0; k < k1; ++k) {
          float aik = a[static_cast<std::size_t>(i) * n + k];
          const float* bk = b + static_cast<std::size_t>(k) * n;
          for (int j = 0; j < n; ++j) ci[j] += aik * bk[j];
        }
      }
    }
  });
}

int ThreadedBlas::potrf_ln_flat(int n, float* a, int bs) {
  SMPSS_CHECK(n % bs == 0, "block size must divide the matrix size");
  const int nb = n / bs;

  // Right-looking: factorize panel k (serial potrf + parallel trsm), then
  // update the trailing submatrix in parallel; barrier between every phase.
  for (int k = 0; k < nb; ++k) {
    {
      // Serial diagonal factorization — the Amdahl bottleneck.
      TileBuf diag(bs);
      pack_tile(n, a, k * bs, k * bs, bs, diag.p);
      int rc = kernels_.potrf_ln(bs, diag.p);
      if (rc != 0) return rc;
      unpack_tile(n, a, k * bs, k * bs, bs, diag.p);
    }

    if (k + 1 < nb) {
      // Parallel panel solve: rows i in (k, nb) get A[i][k] <- A[i][k] L^-T.
      pool_.run([&](unsigned tid) {
        TileBuf diag(bs), tile(bs);
        pack_tile(n, a, k * bs, k * bs, bs, diag.p);
        for (int i = k + 1 + static_cast<int>(tid); i < nb;
             i += static_cast<int>(pool_.size())) {
          pack_tile(n, a, i * bs, k * bs, bs, tile.p);
          kernels_.trsm_rltn(bs, diag.p, tile.p);
          unpack_tile(n, a, i * bs, k * bs, bs, tile.p);
        }
      });

      // Parallel trailing update: blocks (i, j), k < j <= i < nb.
      pool_.run([&](unsigned tid) {
        TileBuf ai(bs), aj(bs), cij(bs);
        // Flatten the triangular iteration space and deal it round-robin.
        int idx = 0;
        for (int i = k + 1; i < nb; ++i) {
          for (int j = k + 1; j <= i; ++j, ++idx) {
            if (idx % static_cast<int>(pool_.size()) !=
                static_cast<int>(tid))
              continue;
            pack_tile(n, a, i * bs, k * bs, bs, ai.p);
            pack_tile(n, a, i * bs, j * bs, bs, cij.p);
            if (i == j) {
              kernels_.syrk_ln_minus(bs, ai.p, cij.p);
            } else {
              pack_tile(n, a, j * bs, k * bs, bs, aj.p);
              kernels_.gemm_nt_minus(bs, ai.p, aj.p, cij.p);
            }
            unpack_tile(n, a, i * bs, j * bs, bs, cij.p);
          }
        }
      });
    }
  }
  return 0;
}

}  // namespace smpss::blas
