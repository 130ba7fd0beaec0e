// Depthwise convolution: the memory-bound degenerate grouping
// (groups == channels) popularised by MobileNet-style separable blocks.
//
// The paper's seven frameworks predate depthwise-separable convolution;
// this engine is the reproduction's post-paper extension for it. Each
// filter reads exactly one input channel (channel multiplier M =
// filters / channels filters share each channel), so there is no
// reduction over channels to feed a GEMM — im2col-based engines waste
// their data movement here. Instead the engine walks the spatial window
// directly with a vectorised row inner loop, needs no workspace, and
// parallelises over independent (image, channel/filter) planes.
#pragma once

#include "conv/conv_engine.hpp"

namespace gpucnn::conv {

/// Sliding-window engine specialised for groups == channels (any
/// channel multiplier). Declines everything else in supports().
class DepthwiseConv final : public ConvEngine {
 public:
  [[nodiscard]] Strategy strategy() const override {
    return Strategy::kDirect;
  }
  [[nodiscard]] std::string_view name() const override {
    return "depthwise";
  }
  /// Only depthwise-degenerate groupings: one input channel per group.
  [[nodiscard]] bool supports(const ConvConfig& cfg) const override {
    return cfg.groups == cfg.channels && cfg.channels % cfg.groups == 0 &&
           cfg.filters % cfg.groups == 0;
  }

  void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                     const Tensor& filters, Tensor& grad_input) const override;
  void backward_filter(const ConvConfig& cfg, const Tensor& input,
                       const Tensor& grad_output,
                       Tensor& grad_filters) const override;

 private:
  /// Bias + ReLU ride each finished output row.
  void run_forward(const ConvConfig& cfg, const Tensor& input,
                   const Tensor& filters, Tensor& output,
                   const Epilogue& epilogue) const override;
};

}  // namespace gpucnn::conv
