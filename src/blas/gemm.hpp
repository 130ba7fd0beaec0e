// Single-precision GEMM, the workhorse of unrolling-based convolution.
//
// Two implementations share one interface:
//   * sgemm_naive — triple loop, the correctness oracle.
//   * sgemm       — cache-blocked, panel-packed, parallelised across the
//                   global thread pool. This plays the role cuBLAS plays in
//                   Caffe/Torch-cunn/Theano-CorrMM. Its loop nest is the
//                   one the int8 igemm runs too (blas/blocked.hpp).
//
// All matrices are row-major. C = alpha * op(A) * op(B) + beta * C.
#pragma once

#include <cstddef>
#include <span>

namespace gpucnn::blas {

/// Whether an operand is used as-is or transposed.
enum class Trans { kNo, kYes };

template <typename T>
class Packed;
/// An fp32 operand packed once into micro-kernel panels (blas/packed.hpp).
using PackedMatrix = Packed<float>;

/// Optional fused epilogue applied to C after its final k update: a
/// per-row bias broadcast (bias[i] added to every element of row i of C)
/// and/or a ReLU clamp, performed in the micro-kernel write-back while
/// the tile is still hot. The operation order matches the unfused
/// sequence (scale, add bias, clamp) exactly, so fused and unfused
/// results are bit-for-bit identical.
struct Epilogue {
  const float* bias = nullptr;  ///< per-row bias, length m; nullptr = none
  bool relu = false;
  [[nodiscard]] bool active() const { return bias != nullptr || relu; }
};

/// Reference GEMM: straightforward triple loop, used as the oracle in tests
/// and as the baseline in the blocking ablation bench.
void sgemm_naive(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, std::span<const float> a,
                 std::size_t lda, std::span<const float> b, std::size_t ldb,
                 float beta, std::span<float> c, std::size_t ldc);

/// Blocked, packed, parallel GEMM. `epilogue` (bias broadcast + ReLU)
/// rides the write-back of the final k block: identical to sgemm
/// followed by the separate bias/ReLU passes, without re-reading C.
/// `packed` (pack_a or pack_b of this call's op(A) or op(B); its role
/// says which) replaces that operand's per-call packing, bit-identically.
/// The operand spans stay required: the small-problem path and a stale
/// pack (SIMD dispatch changed since packing) stage from them.
void sgemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, std::span<const float> a,
           std::size_t lda, std::span<const float> b, std::size_t ldb,
           float beta, std::span<float> c, std::size_t ldc,
           const Epilogue& epilogue = {},
           const PackedMatrix* packed = nullptr);

/// Convenience for the common dense row-major case with natural leading
/// dimensions (lda = k or m, ldb = n or k, ldc = n).
void sgemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, std::span<const float> a,
           std::span<const float> b, float beta, std::span<float> c);

/// FLOP count of a GEMM call (multiply-add counted as two operations).
[[nodiscard]] constexpr double gemm_flops(std::size_t m, std::size_t n,
                                          std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace gpucnn::blas
