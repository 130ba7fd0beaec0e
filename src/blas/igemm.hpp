// Int8 GEMM for the quantized inference path: C = A(s8) * B(u8) with
// int32 accumulation. It runs the fp32 sgemm's blocked loop nest
// (blas/blocked.hpp) with its own tiles, packers and write-back.
//
// Operand convention (chosen to fit _mm256_maddubs_epi16, whose first
// operand is unsigned and second signed):
//   A: row-major m x k, int8 quantized *weights*, |a| <= 63
//      (quant::kWeightQMax — the bound that makes the AVX2 kernel's
//      int16 intermediates saturation-free, hence exact).
//   B: row-major k x n, uint8 quantized *activations* (full 0..255).
//
// Accumulators are int32; k must stay below kMaxK so a full reduction
// cannot overflow (255 * 63 * kMaxK < 2^31).
//
// The fused write-back (QEpilogue) performs, per row r of C and in this
// order, exactly what a quantized conv layer needs:
//   acc'  = acc - row_offsets[r]          (activation zero-point correction)
//   real  = scales[r] * acc' + bias[r]    (dequantize, add fp32 bias)
//   real  = max(real, 0)                  (optional ReLU)
//   out   = real                          (Out::kF32), or
//   out   = sat_u8(round(real / out_scale) + out_zero_point)  (Out::kU8)
// applied in-register on the hot tile — there is no intermediate fp32
// or int32 matrix in memory on the single-k-block path.
//
// Every blocked entry point takes an optional `packed` weight operand
// (pack_a_i8 of this call's A, blas/packed.hpp) that replaces A's
// per-call packing, bit-exactly. `a` stays required: the small-problem
// path and a stale pack (SIMD dispatch changed since packing) stage
// from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace gpucnn::blas {

template <typename T>
class Packed;
/// Int8 weights packed once into quad tiles (blas/packed.hpp).
using PackedMatrixI8 = Packed<std::int8_t>;

/// Largest k an int8 GEMM may reduce over without risking int32
/// accumulator overflow (255 * 63 * k < 2^31).
inline constexpr std::size_t kMaxIgemmK = 133000;

/// Fused dequantize / bias / ReLU / re-quantize write-back.
struct QEpilogue {
  const float* scales = nullptr;        ///< per-row dequant scale, required
  const std::int32_t* row_offsets = nullptr;  ///< per-row zp correction
  const float* bias = nullptr;          ///< per-row fp32 bias, optional
  bool relu = false;
  enum class Out { kF32, kU8 };
  Out out = Out::kF32;
  float out_scale = 1.0F;               ///< Out::kU8 only
  std::int32_t out_zero_point = 0;      ///< Out::kU8 only
};

/// Reference triple loop, the exactness oracle: c = a * b (overwrite),
/// int32 accumulation.
void igemm_s32_naive(std::size_t m, std::size_t n, std::size_t k,
                     std::span<const std::int8_t> a, std::size_t lda,
                     std::span<const std::uint8_t> b, std::size_t ldb,
                     std::span<std::int32_t> c, std::size_t ldc);

/// Blocked, packed, parallel int8 GEMM with raw int32 output
/// (overwrite). Bit-exact against igemm_s32_naive for |a| <= 63.
void igemm_s32(std::size_t m, std::size_t n, std::size_t k,
               std::span<const std::int8_t> a, std::size_t lda,
               std::span<const std::uint8_t> b, std::size_t ldb,
               std::span<std::int32_t> c, std::size_t ldc,
               const PackedMatrixI8* packed = nullptr);

/// Blocked int8 GEMM with the fused epilogue, fp32 output
/// (ep.out must be Out::kF32).
void igemm(std::size_t m, std::size_t n, std::size_t k,
           std::span<const std::int8_t> a, std::size_t lda,
           std::span<const std::uint8_t> b, std::size_t ldb,
           const QEpilogue& ep, std::span<float> c, std::size_t ldc,
           const PackedMatrixI8* packed = nullptr);

/// Blocked int8 GEMM with the fused epilogue, re-quantized uint8 output
/// (ep.out must be Out::kU8).
void igemm(std::size_t m, std::size_t n, std::size_t k,
           std::span<const std::int8_t> a, std::size_t lda,
           std::span<const std::uint8_t> b, std::size_t ldb,
           const QEpilogue& ep, std::span<std::uint8_t> c, std::size_t ldc,
           const PackedMatrixI8* packed = nullptr);

}  // namespace gpucnn::blas
