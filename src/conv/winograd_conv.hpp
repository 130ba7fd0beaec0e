// Winograd convolution — the fourth convolution strategy, which
// post-dates the paper (Lavin & Gray, 2015) and became cuDNN v5's answer
// to the small-kernel regime where the paper finds FFT convolution
// losing to unrolling (Fig. 3(d), k < 7).
//
// The minimal-filtering algorithm computes each m x m output tile from
// an alpha x alpha input tile (alpha = m + 2) via per-tile transforms
//   V = B^T d B,   U = G g G^T,   Y = A^T (U .* V) A
// Two tile sizes are provided: F(2x2,3x3) (16 multiplies instead of 36
// per tile) and F(4x4,3x3) (36 instead of 144). Rather than the naive
// per-tile element-wise accumulation, the engine uses the scattered-GEMM
// formulation: transforms scatter every tile into alpha^2 SoA planes so
// the multiply stage becomes one (F x C) x (C x P) sgemm per tile
// position over P = batch * tiles^2 patches, batched over a P-block to
// bound workspace. Each transform is written once over a value type and
// runs 8 tiles at a time in an 8-lane vector, compiled for the baseline
// ISA and for AVX2 and picked at run time; neither build contracts to FMA,
// so both SIMD levels give bit-identical results. The inverse transform's
// write-back fuses the bias+ReLU epilogue.
//
// Only 3x3 kernels at stride 1 (pad <= 2, ungrouped) are supported;
// backward-data reuses the forward kernel on the rotated filters, and
// backward-filter uses the transpose formulation (dU_t = dM_t V_t^T,
// dg = G^T dU G) — no silent fallback to another engine. Any residual
// fallback (e.g. a pack in another engine's format, or a stale one)
// increments the conv.winograd.fallbacks counter.
#pragma once

#include "conv/conv_engine.hpp"

namespace gpucnn::conv {

/// Output-tile size of the minimal-filtering algorithm.
enum class WinogradTile {
  kF2,  ///< F(2x2,3x3): 4x4 tiles, 16 tile positions, 2.25x fewer multiplies
  kF4,  ///< F(4x4,3x3): 6x6 tiles, 36 tile positions, 4x fewer multiplies
};

/// Tile positions (alpha^2) of a Winograd tile size — the number of
/// scattered GEMMs and of prepacked filter panels.
[[nodiscard]] constexpr std::size_t winograd_positions(WinogradTile tile) {
  return tile == WinogradTile::kF2 ? 16 : 36;
}

class WinogradConv final : public ConvEngine {
 public:
  explicit WinogradConv(WinogradTile tile = WinogradTile::kF2)
      : tile_(tile) {}

  [[nodiscard]] Strategy strategy() const override {
    return Strategy::kWinograd;
  }
  [[nodiscard]] std::string_view name() const override {
    return tile_ == WinogradTile::kF2 ? "winograd" : "winograd-f4";
  }
  [[nodiscard]] bool supports(const ConvConfig& cfg) const override {
    return cfg.kernel == 3 && cfg.stride == 1 && cfg.pad <= 2 &&
           cfg.groups == 1;
  }
  [[nodiscard]] WinogradTile tile() const { return tile_; }

  /// Pre-transforms the filters once (U = G g G^T, laid out
  /// [alpha^2][F][C] in the pack's `transformed` buffer) and packs the
  /// F x C plane of each tile position as a GEMM-A panel.
  [[nodiscard]] std::shared_ptr<const PackedFilters> prepack(
      const ConvConfig& cfg, const Tensor& filters) const override;
  void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                     const Tensor& filters, Tensor& grad_input) const override;
  void backward_filter(const ConvConfig& cfg, const Tensor& input,
                       const Tensor& grad_output,
                       Tensor& grad_filters) const override;

  /// Multiplies per output element relative to direct convolution, for
  /// the classic F(2x2,3x3) tile: 16/36.
  [[nodiscard]] static double arithmetic_reduction() { return 16.0 / 36.0; }

 private:
  /// The inverse transform's write-back fuses bias + ReLU. Reads this
  /// engine's own pack in place of the per-call filter transform; any
  /// other pack (GEMM panels, the other tile size) runs the transform
  /// on the fly and counts a conv.winograd.fallbacks, as does a stale
  /// own pack.
  void run_forward(const ConvConfig& cfg, const Tensor& input,
                   const Tensor& filters, Tensor& output,
                   const Epilogue& epilogue) const override;

  WinogradTile tile_;
};

namespace wino_detail {
// Scalar reference transforms over a single tile, exposed for the
// round-trip identity tests. Layouts are row-major and contiguous:
//   transform_data    d[alpha^2]  -> v[alpha^2]   (V = B^T d B)
//   transform_filter  g[9]        -> u[alpha^2]   (U = G g G^T)
//   transform_output  m[alpha^2]  -> y[m^2]       (Y = A^T m A)
void transform_data(WinogradTile tile, const float* d, float* v);
void transform_filter(WinogradTile tile, const float* g, float* u);
void transform_output(WinogradTile tile, const float* m, float* y);
}  // namespace wino_detail

}  // namespace gpucnn::conv
