// Implicit-GEMM convolution: the unrolling strategy without the unrolled
// buffer — cuDNN's design point (paper §V.B: "although cuDNN does not
// need extra memory for unrolling, it consumes more memory than other
// unrolling-based implementations to achieve a better performance";
// ours needs no extra memory at all).
//
// The GEMM loop indexes the virtual column matrix directly: element
// (c*k*k + ky*k + kx, y*o + x) is read from input(c, y*s+ky-p, x*s+kx-p)
// on the fly, so the lowering never materialises. Numerically identical
// to GemmConv; memory profile identical to DirectConv.
#pragma once

#include "conv/gemm_conv.hpp"

namespace gpucnn::conv {

class ImplicitGemmConv final : public ConvEngine {
 public:
  [[nodiscard]] Strategy strategy() const override {
    return Strategy::kUnrolling;
  }
  [[nodiscard]] std::string_view name() const override {
    return "implicit-gemm";
  }
  [[nodiscard]] bool supports(const ConvConfig& cfg) const override {
    return cfg.groups == 1;  // the tile gather assumes dense channels
  }

  [[nodiscard]] std::shared_ptr<const PackedFilters> prepack(
      const ConvConfig& cfg, const Tensor& filters) const override {
    return supports(cfg) ? pack_gemm_filters(name(), cfg, filters) : nullptr;
  }
  void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                     const Tensor& filters, Tensor& grad_input) const override;
  void backward_filter(const ConvConfig& cfg, const Tensor& input,
                       const Tensor& grad_output,
                       Tensor& grad_filters) const override;

 private:
  /// Bias + ReLU fuse into the per-tile SGEMM epilogue (the tile GEMM's
  /// M rows are the full filter set, so bias indexes rows directly).
  /// Every output tile re-reads the whole filter matrix, so this
  /// engine's own pack is reused positions/kTile times per image.
  void run_forward(const ConvConfig& cfg, const Tensor& input,
                   const Tensor& filters, Tensor& output,
                   const Epilogue& epilogue) const override;
};

}  // namespace gpucnn::conv
