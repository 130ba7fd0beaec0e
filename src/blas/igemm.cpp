#include "blas/igemm.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>

#include "blas/blocked.hpp"
#include "blas/packed.hpp"
#include "core/cpu_features.hpp"
#include "core/error.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"

#if GPUCNN_X86_SIMD
#include <immintrin.h>
#endif

namespace gpucnn::blas {
namespace {

// The micro tile is 4x16 (4 weight rows, 16 activation columns, 8 ymm
// int32 accumulators on AVX2); k advances in quads of 4 bytes because
// maddubs/madd reduce 4 products per int32 lane per step.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;

// The packed-operand contract: for each k quad, the B tile stores
// 64 bytes — columns 0..7 x 4 k-bytes, then columns 8..15 x 4 k-bytes —
// and the A tile 16 bytes — rows 0..3 x 4 k-bytes. Zero padding (past
// kc, jn or im) contributes exact zero products, so ragged edges need
// no special casing in the kernels.
void micro_kernel_4x16_portable(std::size_t quads,
                                const std::int8_t* __restrict pa,
                                const std::uint8_t* __restrict pb,
                                std::int32_t* __restrict acc) {
  std::memset(acc, 0, kMr * kNr * sizeof(std::int32_t));
  for (std::size_t q = 0; q < quads; ++q) {
    for (std::size_t i = 0; i < kMr; ++i) {
      const std::int8_t* arow = pa + i * 4;
      std::int32_t* accrow = acc + i * kNr;
      for (std::size_t j = 0; j < kNr; ++j) {
        const std::uint8_t* bq = pb + (j < 8 ? j * 4 : 32 + (j - 8) * 4);
        accrow[j] += static_cast<std::int32_t>(arow[0]) * bq[0] +
                     static_cast<std::int32_t>(arow[1]) * bq[1] +
                     static_cast<std::int32_t>(arow[2]) * bq[2] +
                     static_cast<std::int32_t>(arow[3]) * bq[3];
      }
    }
    pa += 16;
    pb += 64;
  }
}

#if GPUCNN_X86_SIMD
// AVX2 4x16 int8 kernel: 8 ymm accumulators (4 rows x 2 vectors of 8
// int32 columns). Per quad step: 2 B loads, then per row a 4-byte
// weight broadcast, maddubs (u8 x s8 -> saturating int16 pair sums; the
// |a| <= 63 precondition keeps every pair sum under 32767, so no
// saturation occurs and the kernel is exact) and madd-by-ones to widen
// the pairs into the int32 accumulators.
__attribute__((target("avx2"))) void micro_kernel_4x16_avx2(
    std::size_t quads, const std::int8_t* __restrict pa,
    const std::uint8_t* __restrict pb, std::int32_t* __restrict acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i c0[4];
  __m256i c1[4];
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    c0[i] = _mm256_setzero_si256();
    c1[i] = _mm256_setzero_si256();
  }
  for (std::size_t q = 0; q < quads; ++q) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + 32));
    pb += 64;
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      std::int32_t aw;
      std::memcpy(&aw, pa + i * 4, sizeof(aw));
      const __m256i a = _mm256_set1_epi32(aw);
      const __m256i p0 = _mm256_maddubs_epi16(b0, a);
      const __m256i p1 = _mm256_maddubs_epi16(b1, a);
      c0[i] = _mm256_add_epi32(c0[i], _mm256_madd_epi16(p0, ones));
      c1[i] = _mm256_add_epi32(c1[i], _mm256_madd_epi16(p1, ones));
    }
    pa += 16;
  }
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i * 16), c0[i]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i * 16 + 8),
                        c1[i]);
  }
}
#endif  // GPUCNN_X86_SIMD

obs::Counter& igemm_calls_counter() {
  static obs::Counter& c = obs::metrics().counter("blas.igemm.calls");
  return c;
}

// The int8 family of the blocked loop nest (blas/blocked.hpp). A holds
// the quantized weights, B the quantized activations (see the header's
// operand convention); neither is ever transposed.
struct Igemm {
  using A = std::int8_t;
  using B = std::uint8_t;
  using Acc = std::int32_t;
  static constexpr const char* kName = "igemm";
  // kKc is a multiple of 4, kMc of kMr. There is no column window: one
  // B panel spans all of n.
  static constexpr std::size_t kMc = 96;
  static constexpr std::size_t kKc = 1536;
  static constexpr std::size_t kNc = std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kStepK = 4;
  static constexpr std::size_t kMaxTile = kMr * kNr;

  static MicroKernel<std::int8_t, std::uint8_t, std::int32_t> kernel() {
#if GPUCNN_X86_SIMD
    if (simd::active() == simd::Level::kAvx2) {
      return {kMr, kNr, micro_kernel_4x16_avx2};
    }
#endif
    return {kMr, kNr, micro_kernel_4x16_portable};
  }

  // Packs an im x kc slice of A at (i0, p0) into one quad-layout tile.
  static void pack_a(Operand<std::int8_t> a, std::size_t i0,
                     std::size_t im, std::size_t p0, std::size_t kc,
                     std::size_t /*mr*/, std::int8_t* dst) {
    const std::size_t quads = (kc + 3) / 4;
    for (std::size_t q = 0; q < quads; ++q) {
      std::int8_t* out = dst + q * 16;
      for (std::size_t i = 0; i < kMr; ++i) {
        for (std::size_t t = 0; t < 4; ++t) {
          const std::size_t p = q * 4 + t;
          out[i * 4 + t] = (i < im && p < kc)
                               ? a.data[(i0 + i) * a.ld + p0 + p]
                               : std::int8_t{0};
        }
      }
    }
  }

  // Packs a kc x jn slice of B at (p0, j0) into one quad-layout tile.
  static void pack_b(Operand<std::uint8_t> b, std::size_t p0,
                     std::size_t kc, std::size_t j0, std::size_t jn,
                     std::size_t /*nr*/, std::uint8_t* dst) {
    const std::size_t quads = (kc + 3) / 4;
    for (std::size_t q = 0; q < quads; ++q) {
      std::uint8_t* out = dst + q * 64;
      // Full interior tile: interleave four B rows branch-free (the hot
      // case — ragged k or n edges fall through to the guarded loop).
      if (jn == kNr && q * 4 + 4 <= kc) {
        const std::uint8_t* row = &b.data[(p0 + q * 4) * b.ld + j0];
#pragma GCC unroll 4
        for (std::size_t t = 0; t < 4; ++t, row += b.ld) {
          for (std::size_t j = 0; j < 8; ++j) out[j * 4 + t] = row[j];
          for (std::size_t j = 8; j < 16; ++j) {
            out[32 + (j - 8) * 4 + t] = row[j];
          }
        }
        continue;
      }
      for (std::size_t j = 0; j < kNr; ++j) {
        std::uint8_t* cell = out + (j < 8 ? j * 4 : 32 + (j - 8) * 4);
        for (std::size_t t = 0; t < 4; ++t) {
          const std::size_t p = q * 4 + t;
          cell[t] = (j < jn && p < kc) ? b.data[(p0 + p) * b.ld + j0 + j]
                                       : std::uint8_t{0};
        }
      }
    }
  }
};

// Saturating uint8 re-quantization of one dequantized value. The clamp
// compares in float space before any float->int conversion, so an
// arbitrarily large accumulator can never hit the UB of an
// unrepresentable cast (the classic saturating-cast bug UBSan exists
// to catch).
inline std::uint8_t requantize_u8(float v, float out_scale,
                                  std::int32_t out_zp) {
  const float shifted = v / out_scale + static_cast<float>(out_zp);
  if (!(shifted > 0.0F)) return 0;
  if (shifted >= 255.0F) return 255;
  // floor(x + 0.5) == lround(x) on the guarded positive range; the
  // cast keeps libm out of the write-back loop.
  return static_cast<std::uint8_t>(
      static_cast<std::int32_t>(shifted + 0.5F));
}

// Applies the epilogue to one finished int32 row (stride 1, jn values
// belonging to C row `row`) and stores fp32 or uint8.
template <typename OutT>
void write_final_row(const std::int32_t* acc, std::size_t jn,
                     std::size_t row, const QEpilogue& ep, OutT* out) {
  const float scale = ep.scales[row];
  const std::int32_t off =
      ep.row_offsets != nullptr ? ep.row_offsets[row] : 0;
  const float bias = ep.bias != nullptr ? ep.bias[row] : 0.0F;
  for (std::size_t j = 0; j < jn; ++j) {
    float v = scale * static_cast<float>(acc[j] - off) + bias;
    if (ep.relu && v < 0.0F) v = 0.0F;
    if constexpr (std::is_same_v<OutT, float>) {
      out[j] = v;
    } else {
      out[j] = requantize_u8(v, ep.out_scale, ep.out_zero_point);
    }
  }
}

// The int8 write-back of one micro tile, by output element type. Raw
// int32 output accumulates straight into C. For f32/u8 output, a k that
// spans several blocks stages its partial sums in `staging` (m x n, row
// stride n) and the last block folds them into the tile before the
// epilogue — so the int32 never round-trips through an intermediate
// matrix on the single-block path.
template <typename Out>
struct IgemmWrite {
  Out* c;
  std::size_t ldc;
  const QEpilogue* ep;
  std::int32_t* staging;  // null unless k spans several blocks
  std::size_t n;

  void operator()(std::int32_t* acc, std::size_t nr, std::size_t i0,
                  std::size_t im, std::size_t j0, std::size_t jn,
                  bool first_k, bool last_k) const {
    if constexpr (std::is_same_v<Out, std::int32_t>) {
      for (std::size_t i = 0; i < im; ++i) {
        std::int32_t* crow = c + (i0 + i) * ldc + j0;
        const std::int32_t* accrow = acc + i * nr;
        if (first_k) {
          for (std::size_t j = 0; j < jn; ++j) crow[j] = accrow[j];
        } else {
          for (std::size_t j = 0; j < jn; ++j) crow[j] += accrow[j];
        }
      }
    } else {
      if (!last_k) {
        for (std::size_t i = 0; i < im; ++i) {
          std::int32_t* srow = staging + (i0 + i) * n + j0;
          const std::int32_t* accrow = acc + i * nr;
          if (first_k) {
            for (std::size_t j = 0; j < jn; ++j) srow[j] = accrow[j];
          } else {
            for (std::size_t j = 0; j < jn; ++j) srow[j] += accrow[j];
          }
        }
        return;
      }
      if (!first_k) {
        for (std::size_t i = 0; i < im; ++i) {
          const std::int32_t* srow = staging + (i0 + i) * n + j0;
          std::int32_t* accrow = acc + i * nr;
          for (std::size_t j = 0; j < jn; ++j) accrow[j] += srow[j];
        }
      }
      for (std::size_t i = 0; i < im; ++i) {
        write_final_row(acc + i * nr, jn, i0 + i, *ep,
                        c + (i0 + i) * ldc + j0);
      }
    }
  }
};

// One int8 GEMM into C of element type Out; `ep` is null for raw int32.
template <typename Out>
void igemm_into(std::size_t m, std::size_t n, std::size_t k,
                std::span<const std::int8_t> a, std::size_t lda,
                std::span<const std::uint8_t> b, std::size_t ldb,
                const QEpilogue* ep, std::span<Out> c, std::size_t ldc,
                const PackedMatrixI8* packed) {
  constexpr bool kRaw = std::is_same_v<Out, std::int32_t>;
  if (m == 0 || n == 0) return;
  check(k <= kMaxIgemmK, "igemm k exceeds the int32 accumulator bound");
  if constexpr (!kRaw) {
    check(ep->scales != nullptr, "igemm epilogue requires per-row scales");
  }
  igemm_calls_counter().add(1);

  // k == 0: the reduction is empty; outputs are the epilogue of zero.
  if (k == 0) {
    ws::Scratch<std::int32_t> zero(n, /*zero=*/true);
    for (std::size_t i = 0; i < m; ++i) {
      if constexpr (kRaw) {
        std::memset(c.data() + i * ldc, 0, n * sizeof(std::int32_t));
      } else {
        write_final_row(zero.data(), n, i, *ep, c.data() + i * ldc);
      }
    }
    return;
  }

  // Small problems: packing and dispatch overhead dominates; run the
  // naive reduction (into scratch when the output is not int32).
  if (static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(k) < 64.0 * 64.0 * 64.0) {
    if constexpr (kRaw) {
      igemm_s32_naive(m, n, k, a, lda, b, ldb, c, ldc);
    } else {
      ws::Scratch<std::int32_t> tmp(m * n);
      igemm_s32_naive(m, n, k, a, lda, b, ldb, tmp.span(), n);
      for (std::size_t i = 0; i < m; ++i) {
        write_final_row(tmp.data() + i * n, n, i, *ep, c.data() + i * ldc);
      }
    }
    return;
  }

  std::optional<ws::Scratch<std::int32_t>> staging;
  if (!kRaw && k > Igemm::kKc) staging.emplace(m * n);
  run_blocked<Igemm>(
      m, n, k, {a, lda}, {b, ldb}, packed, nullptr,
      IgemmWrite<Out>{c.data(), ldc, ep,
                      staging ? staging->data() : nullptr, n});
}

}  // namespace

void igemm_s32_naive(std::size_t m, std::size_t n, std::size_t k,
                     std::span<const std::int8_t> a, std::size_t lda,
                     std::span<const std::uint8_t> b, std::size_t ldb,
                     std::span<std::int32_t> c, std::size_t ldc) {
  check(k <= kMaxIgemmK, "igemm k exceeds the int32 accumulator bound");
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[i * lda + p]) *
               static_cast<std::int32_t>(b[p * ldb + j]);
      }
      c[i * ldc + j] = acc;
    }
  }
}

void igemm_s32(std::size_t m, std::size_t n, std::size_t k,
               std::span<const std::int8_t> a, std::size_t lda,
               std::span<const std::uint8_t> b, std::size_t ldb,
               std::span<std::int32_t> c, std::size_t ldc,
               const PackedMatrixI8* packed) {
  igemm_into(m, n, k, a, lda, b, ldb, nullptr, c, ldc, packed);
}

void igemm(std::size_t m, std::size_t n, std::size_t k,
           std::span<const std::int8_t> a, std::size_t lda,
           std::span<const std::uint8_t> b, std::size_t ldb,
           const QEpilogue& ep, std::span<float> c, std::size_t ldc,
           const PackedMatrixI8* packed) {
  check(ep.out == QEpilogue::Out::kF32,
        "fp32-output igemm called with a uint8 epilogue");
  igemm_into(m, n, k, a, lda, b, ldb, &ep, c, ldc, packed);
}

void igemm(std::size_t m, std::size_t n, std::size_t k,
           std::span<const std::int8_t> a, std::size_t lda,
           std::span<const std::uint8_t> b, std::size_t ldb,
           const QEpilogue& ep, std::span<std::uint8_t> c, std::size_t ldc,
           const PackedMatrixI8* packed) {
  check(ep.out == QEpilogue::Out::kU8,
        "uint8-output igemm called with an fp32 epilogue");
  check(std::isfinite(ep.out_scale) && ep.out_scale > 0.0F,
        "uint8 epilogue needs a positive finite output scale");
  check(ep.out_zero_point >= 0 && ep.out_zero_point <= 255,
        "uint8 epilogue zero point must lie in [0, 255]");
  igemm_into(m, n, k, a, lda, b, ldb, &ep, c, ldc, packed);
}

PackedMatrixI8 pack_a_i8(std::size_t m, std::size_t k,
                         std::span<const std::int8_t> a, std::size_t lda) {
  return detail::PackBuilder<Igemm>::build<PackRole::kA>(m, k, {a, lda});
}

}  // namespace gpucnn::blas
