// Persistent packed operands for pack-once / execute-many GEMMs.
//
// The blocked sgemm/igemm loop nest (blas/blocked.hpp) re-packs its
// operands into micro-kernel panels on every call. At inference the
// weights never change, so that packing is pure waste (10–30% of
// small-batch GEMM time). A Packed<T> holds one operand's panels in
// exactly the per-(k-block, tile) layout the loop nest stages — one
// routine packs both — so a call handed the pack feeds the very same
// micro-kernels the very same bytes: results are bit-identical to the
// staged path by construction, fused epilogue included.
//
// A pack rides the plain call (sgemm's, igemm_s32's or igemm's last
// argument); its role says which operand it replaces. Operand roles
// follow the call sites, not a fixed convention:
//   * conv engines run W(F x CKK) * col — weights are operand A, packed
//     in mr-row panels (pack_a);
//   * FcLayer runs in * W^T — weights are operand B, packed in nr-column
//     panels (pack_b);
//   * the int8 path's igemm takes quantized weights as operand A, packed
//     in maddubs quad tiles (pack_a_i8).
//
// Every pack records the SIMD level (and thus micro-tile shape) active
// at pack time. If runtime dispatch changes — GPUCNN_SIMD, a test
// override — the pack no longer matches the kernels that would run, so
// the call ignores it and stages the operand it was passed alongside.
// A pack keeps no reference to the values it was packed from; source()
// only identifies them.
//
// Metrics (docs/METRICS.md): blas.{sgemm,igemm}.prepack_bytes count the
// one-time pack traffic; blas.{sgemm,igemm}.prepack_hits count blocked
// GEMM calls that consumed a cached pack instead of re-packing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/igemm.hpp"
#include "core/cpu_features.hpp"
#include "core/tensor.hpp"

namespace gpucnn::blas {

/// Which GEMM operand a pack replaces.
enum class PackRole { kA, kB };

namespace detail {
template <typename Family>
struct PackBuilder;  // blas/blocked.hpp: the one routine that fills a pack
}  // namespace detail

/// One operand packed into micro-kernel panels (see file comment).
/// Immutable after packing; safe to share across threads by const
/// reference or shared_ptr.
template <typename T>
class Packed {
 public:
  Packed() = default;

  /// True when the pack holds data (the operand was non-empty).
  [[nodiscard]] bool packed() const { return !data_.empty(); }
  /// True when the pack matches the SIMD level currently dispatched —
  /// a stale pack is skipped, not consumed.
  [[nodiscard]] bool valid() const {
    return packed() && level_ == simd::active();
  }

  [[nodiscard]] PackRole role() const { return role_; }
  /// Logical operand dimensions: op(A) is rows x cols = m x k, op(B) is
  /// k x n with rows = k, cols = n.
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t bytes() const { return data_.size() * sizeof(T); }

  [[nodiscard]] simd::Level level() const { return level_; }
  /// Micro-tile edge the panels were packed for (mr for A, nr for B).
  [[nodiscard]] std::size_t tile() const { return tile_; }
  /// k-blocking the panels use (the loop nest's KC at pack time).
  [[nodiscard]] std::size_t kc_block() const { return kc_block_; }
  /// First element of the operand the pack was built from: an identity
  /// for owners telling their own pack from one of other values, never
  /// dereferenced.
  [[nodiscard]] const T* source() const { return source_; }

  [[nodiscard]] const T* data() const { return data_.data(); }

 private:
  template <typename Family>
  friend struct detail::PackBuilder;

  PackRole role_ = PackRole::kA;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  simd::Level level_ = simd::Level::kPortable;
  std::size_t tile_ = 0;
  std::size_t kc_block_ = 0;
  const T* source_ = nullptr;
  std::vector<T, AlignedAllocator<T>> data_;
};

/// Packs op(A) (logical m x k) into mr-row panels for the SIMD level
/// active now. Counts blas.sgemm.prepack_bytes.
[[nodiscard]] PackedMatrix pack_a(Trans trans_a, std::size_t m,
                                  std::size_t k, std::span<const float> a,
                                  std::size_t lda);

/// Packs op(B) (logical k x n) into nr-column panels for the SIMD level
/// active now. Counts blas.sgemm.prepack_bytes.
[[nodiscard]] PackedMatrix pack_b(Trans trans_b, std::size_t k,
                                  std::size_t n, std::span<const float> b,
                                  std::size_t ldb);

/// Packs int8 weights A (row-major m x k, |a| <= quant::kWeightQMax)
/// into quad tiles. Counts blas.igemm.prepack_bytes.
[[nodiscard]] PackedMatrixI8 pack_a_i8(std::size_t m, std::size_t k,
                                       std::span<const std::int8_t> a,
                                       std::size_t lda);

}  // namespace gpucnn::blas
