// Direct convolution: the traditional sliding-window dot product
// (paper §II.B, strategy of cuda-convnet2 and Theano-legacy).
#pragma once

#include "conv/conv_engine.hpp"

namespace gpucnn::conv {

/// Loop-nest convolution, parallelised over independent output slices.
/// Needs no workspace, mirroring cuda-convnet2's direct strategy.
class DirectConv final : public ConvEngine {
 public:
  [[nodiscard]] Strategy strategy() const override {
    return Strategy::kDirect;
  }
  [[nodiscard]] std::string_view name() const override { return "direct"; }
  [[nodiscard]] bool supports(const ConvConfig&) const override {
    return true;
  }

  void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                     const Tensor& filters, Tensor& grad_input) const override;
  void backward_filter(const ConvConfig& cfg, const Tensor& input,
                       const Tensor& grad_output,
                       Tensor& grad_filters) const override;

 private:
  void run_forward(const ConvConfig& cfg, const Tensor& input,
                   const Tensor& filters, Tensor& output,
                   const Epilogue& epilogue) const override;
};

}  // namespace gpucnn::conv
