#include "blas/gemm.hpp"

#include <cstring>

#include "blas/blocked.hpp"
#include "blas/packed.hpp"
#include "core/cpu_features.hpp"
#include "obs/metrics.hpp"

#if GPUCNN_X86_SIMD
#include <immintrin.h>
#endif

namespace gpucnn::blas {
namespace {

// Portable micro kernel (8x8). On GCC/Clang it uses generic vector
// extensions (no ISA-specific intrinsics — the compiler lowers the 4-wide
// ops to whatever the baseline target offers, SSE2 on x86-64, NEON on
// aarch64). Auto-vectorisation is not reliable here: as a standalone
// function reached through a pointer GCC picks a strided scheme ~3x
// slower than this explicit form. Two 4-row halves keep the accumulators
// within 16 vector registers.
#if defined(__GNUC__) || defined(__clang__)
void micro_kernel_8x8_portable(std::size_t kc,
                               const float* __restrict packed_a,
                               const float* __restrict packed_b,
                               float* __restrict acc) {
  constexpr std::size_t mr = 8;
  constexpr std::size_t nr = 8;
  using V4 = float __attribute__((vector_size(16)));
  for (std::size_t ih = 0; ih < mr; ih += 4) {
    V4 c0[4];
    V4 c1[4];
    for (int i = 0; i < 4; ++i) {
      c0[i] = V4{};
      c1[i] = V4{};
    }
    const float* a = packed_a + ih;
    const float* b = packed_b;
    for (std::size_t p = 0; p < kc; ++p) {
      V4 b0;
      V4 b1;
      std::memcpy(&b0, b, sizeof(V4));
      std::memcpy(&b1, b + 4, sizeof(V4));
      for (int i = 0; i < 4; ++i) {
        const V4 av = {a[i], a[i], a[i], a[i]};
        c0[i] += av * b0;
        c1[i] += av * b1;
      }
      a += mr;
      b += nr;
    }
    for (int i = 0; i < 4; ++i) {
      std::memcpy(acc + (ih + i) * nr, &c0[i], sizeof(V4));
      std::memcpy(acc + (ih + i) * nr + 4, &c1[i], sizeof(V4));
    }
  }
}
#else
void micro_kernel_8x8_portable(std::size_t kc, const float* packed_a,
                               const float* packed_b, float* acc) {
  constexpr std::size_t mr = 8;
  constexpr std::size_t nr = 8;
  std::memset(acc, 0, mr * nr * sizeof(float));
  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = packed_a + p * mr;
    const float* brow = packed_b + p * nr;
    for (std::size_t i = 0; i < mr; ++i) {
      const float av = arow[i];
      float* accrow = acc + i * nr;
      for (std::size_t j = 0; j < nr; ++j) accrow[j] += av * brow[j];
    }
  }
}
#endif

#if GPUCNN_X86_SIMD
// AVX2/FMA micro kernel (6x16): 12 ymm accumulators (6 rows x 2 vectors
// of 8 floats), 2 loads + 6 broadcasts + 12 FMAs per k step — the
// classic Haswell-era register tiling, compiled for avx2+fma via the
// target attribute and selected at runtime.
__attribute__((target("avx2,fma"))) void micro_kernel_6x16_avx2(
    std::size_t kc, const float* __restrict packed_a,
    const float* __restrict packed_b, float* __restrict acc) {
  __m256 c0[6];
  __m256 c1[6];
#pragma GCC unroll 6
  for (std::size_t i = 0; i < 6; ++i) {
    c0[i] = _mm256_setzero_ps();
    c1[i] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(packed_b);
    const __m256 b1 = _mm256_loadu_ps(packed_b + 8);
    packed_b += 16;
#pragma GCC unroll 6
    for (std::size_t i = 0; i < 6; ++i) {
      const __m256 a = _mm256_broadcast_ss(packed_a + i);
      c0[i] = _mm256_fmadd_ps(a, b0, c0[i]);
      c1[i] = _mm256_fmadd_ps(a, b1, c1[i]);
    }
    packed_a += 6;
  }
#pragma GCC unroll 6
  for (std::size_t i = 0; i < 6; ++i) {
    _mm256_storeu_ps(acc + i * 16, c0[i]);
    _mm256_storeu_ps(acc + i * 16 + 8, c1[i]);
  }
}
#endif  // GPUCNN_X86_SIMD

obs::Counter& epilogue_calls_counter() {
  static obs::Counter& c =
      obs::metrics().counter("blas.sgemm.epilogue_calls");
  return c;
}

obs::Counter& epilogue_elems_counter() {
  static obs::Counter& c =
      obs::metrics().counter("blas.sgemm.epilogue_elems");
  return c;
}

// Logical element accessor honouring the transpose flag: returns
// op(X)(row, col) for an m-by-n logical operand.
inline float element(std::span<const float> x, std::size_t ld, Trans trans,
                     std::size_t row, std::size_t col) {
  return trans == Trans::kNo ? x[row * ld + col] : x[col * ld + row];
}

// The fp32 family of the blocked loop nest (blas/blocked.hpp).
struct Sgemm {
  using A = float;
  using B = float;
  using Acc = float;
  static constexpr const char* kName = "sgemm";
  // C is updated in mr x nr micro tiles, A is packed in MC x KC panels,
  // B in KC x NC panels. Values chosen so the packed A panel fits L2 and
  // a B micro panel fits L1 on typical x86 cores; the ablation bench
  // sweeps these. kMc/kNc are multiples of every micro-tile edge (8x8
  // portable, 6x16 AVX2) so full panels pack without ragged tiles.
  static constexpr std::size_t kMc = 120;
  static constexpr std::size_t kKc = 256;
  static constexpr std::size_t kNc = 2048;
  static constexpr std::size_t kStepK = 1;
  static constexpr std::size_t kMaxTile = 8 * 16;

  // Which kernel (and thus which tile shape) runs is picked per call
  // from simd::active().
  static MicroKernel<float, float, float> kernel() {
#if GPUCNN_X86_SIMD
    if (simd::active() == simd::Level::kAvx2) {
      return {6, 16, micro_kernel_6x16_avx2};
    }
#endif
    return {8, 8, micro_kernel_8x8_portable};
  }

  // Packs an mr x kc slice of op(A) starting at (i0, p0) into `dst`;
  // rows beyond `im` are zero padded.
  static void pack_a(Operand<float> a, std::size_t i0, std::size_t im,
                     std::size_t p0, std::size_t kc, std::size_t mr,
                     float* dst) {
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < mr; ++i) {
        dst[p * mr + i] =
            i < im ? element(a.data, a.ld, a.trans, i0 + i, p0 + p) : 0.0F;
      }
    }
  }

  // Packs a kc x nr slice of op(B) starting at (p0, j0) into `dst` in
  // row-of-micro-tile order; columns beyond `jn` are zero padded. The
  // no-transpose case copies contiguous rows of B.
  static void pack_b(Operand<float> b, std::size_t p0, std::size_t kc,
                     std::size_t j0, std::size_t jn, std::size_t nr,
                     float* dst) {
    if (b.trans == Trans::kNo && jn == nr) {
      const float* src = b.data.data() + p0 * b.ld + j0;
      for (std::size_t p = 0; p < kc; ++p) {
        std::memcpy(dst + p * nr, src + p * b.ld, nr * sizeof(float));
      }
      return;
    }
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < nr; ++j) {
        dst[p * nr + j] =
            j < jn ? element(b.data, b.ld, b.trans, p0 + p, j0 + j) : 0.0F;
      }
    }
  }
};

// C-tile writeback: crow = alpha * acc + beta * crow, with beta == 0
// treated as overwrite per BLAS convention (crow may be uninitialised).
inline void write_tile(float* c, std::size_t ldc, const float* acc,
                       std::size_t nr, std::size_t im, std::size_t jn,
                       float alpha, float beta) {
  if (beta == 0.0F) {
    for (std::size_t i = 0; i < im; ++i) {
      float* crow = c + i * ldc;
      const float* accrow = acc + i * nr;
      for (std::size_t j = 0; j < jn; ++j) crow[j] = alpha * accrow[j];
    }
  } else {
    for (std::size_t i = 0; i < im; ++i) {
      float* crow = c + i * ldc;
      const float* accrow = acc + i * nr;
      for (std::size_t j = 0; j < jn; ++j) {
        crow[j] = alpha * accrow[j] + beta * crow[j];
      }
    }
  }
}

// The epilogue on rows [row0, row0 + rows) of C: bias[row] broadcast
// along the row, then the ReLU clamp. Runs after the row's final k
// update — the same scale / add-bias / clamp operation order as the
// unfused add_bias + activation passes, so results are bit-identical.
inline void apply_epilogue(float* c, std::size_t ldc, std::size_t row0,
                           std::size_t rows, std::size_t cols,
                           const Epilogue& ep) {
  for (std::size_t i = 0; i < rows; ++i) {
    float* crow = c + i * ldc;
    if (ep.bias != nullptr) {
      const float b = ep.bias[row0 + i];
      for (std::size_t j = 0; j < cols; ++j) crow[j] += b;
    }
    if (ep.relu) {
      for (std::size_t j = 0; j < cols; ++j) {
        crow[j] = crow[j] > 0.0F ? crow[j] : 0.0F;
      }
    }
  }
}

// beta-only update of an m x n block of C (k == 0 or alpha == 0 paths).
void scale_c(std::size_t m, std::size_t n, float beta, std::span<float> c,
             std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * ldc;
    if (beta == 0.0F) {
      std::memset(crow, 0, n * sizeof(float));
    } else {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// The fp32 write-back of one micro tile: beta on the first k block and 1
// after, then bias + ReLU once the tile's reduction over k is complete —
// the tile is hot, so the epilogue is free bandwidth-wise.
struct SgemmWrite {
  float* c;
  std::size_t ldc;
  float alpha;
  float beta;
  const Epilogue& ep;

  void operator()(const float* acc, std::size_t nr, std::size_t i0,
                  std::size_t im, std::size_t j0, std::size_t jn,
                  bool first_k, bool last_k) const {
    float* tile = c + i0 * ldc + j0;
    write_tile(tile, ldc, acc, nr, im, jn, alpha, first_k ? beta : 1.0F);
    if (last_k && ep.active()) apply_epilogue(tile, ldc, i0, im, jn, ep);
  }
};

}  // namespace

void sgemm_naive(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, std::span<const float> a,
                 std::size_t lda, std::span<const float> b, std::size_t ldb,
                 float beta, std::span<float> c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(element(a, lda, trans_a, i, p)) *
               element(b, ldb, trans_b, p, j);
      }
      float& out = c[i * ldc + j];
      // beta == 0 overwrites: `out` may hold garbage or NaN.
      out = beta == 0.0F ? alpha * static_cast<float>(acc)
                         : alpha * static_cast<float>(acc) + beta * out;
    }
  }
}

void sgemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, std::span<const float> a,
           std::size_t lda, std::span<const float> b, std::size_t ldb,
           float beta, std::span<float> c, std::size_t ldc,
           const Epilogue& ep, const PackedMatrix* packed) {
  if (m == 0 || n == 0) return;
  if (ep.active()) {
    epilogue_calls_counter().add(1);
    epilogue_elems_counter().add(static_cast<std::int64_t>(m * n));
  }
  if (k == 0 || alpha == 0.0F) {
    scale_c(m, n, beta, c, ldc);
    if (ep.active()) apply_epilogue(c.data(), ldc, 0, m, n, ep);
    return;
  }

  // Small problems: dispatch overhead and packing dominate; fall back.
  if (static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(k) < 64.0 * 64.0 * 64.0) {
    sgemm_naive(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                ldc);
    if (ep.active()) apply_epilogue(c.data(), ldc, 0, m, n, ep);
    return;
  }

  // The pack is offered for both operands; its role makes it usable for
  // exactly one of them.
  run_blocked<Sgemm>(m, n, k, {a, lda, trans_a}, {b, ldb, trans_b}, packed,
                     packed, SgemmWrite{c.data(), ldc, alpha, beta, ep});
}

void sgemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, std::span<const float> a,
           std::span<const float> b, float beta, std::span<float> c) {
  const std::size_t lda = trans_a == Trans::kNo ? k : m;
  const std::size_t ldb = trans_b == Trans::kNo ? n : k;
  sgemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, n);
}

PackedMatrix pack_a(Trans trans_a, std::size_t m, std::size_t k,
                    std::span<const float> a, std::size_t lda) {
  return detail::PackBuilder<Sgemm>::build<PackRole::kA>(m, k,
                                                         {a, lda, trans_a});
}

PackedMatrix pack_b(Trans trans_b, std::size_t k, std::size_t n,
                    std::span<const float> b, std::size_t ldb) {
  return detail::PackBuilder<Sgemm>::build<PackRole::kB>(k, n,
                                                         {b, ldb, trans_b});
}

}  // namespace gpucnn::blas
