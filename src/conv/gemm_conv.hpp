// Unrolling-based convolution: im2col + SGEMM (+ col2im on the backward
// path). This is the strategy of Caffe, Torch-cunn, Theano-CorrMM and
// cuDNN (paper §II.B), structured as Caffe structures it: one GEMM per
// image over a reused column workspace. At a batch of at least one image
// per pool worker, the forward and backward-data images run as pool
// tasks, each over its own workspace.
#pragma once

#include "conv/conv_engine.hpp"

namespace gpucnn::conv {

class GemmConv final : public ConvEngine {
 public:
  [[nodiscard]] Strategy strategy() const override {
    return Strategy::kUnrolling;
  }
  [[nodiscard]] std::string_view name() const override { return "unrolling"; }
  [[nodiscard]] bool supports(const ConvConfig&) const override {
    return true;
  }

  /// Per group, W_g (F_g x CKK) packed as the forward GEMM's A operand.
  [[nodiscard]] std::shared_ptr<const PackedFilters> prepack(
      const ConvConfig& cfg, const Tensor& filters) const override;
  void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                     const Tensor& filters, Tensor& grad_input) const override;
  void backward_filter(const ConvConfig& cfg, const Tensor& input,
                       const Tensor& grad_output,
                       Tensor& grad_filters) const override;

 private:
  /// Bias + ReLU ride the per-group SGEMM's write-back epilogue (the
  /// GEMM's M rows are exactly this group's filters). The per-group
  /// SGEMMs consume this engine's own pack (A operand) instead of
  /// re-packing it every call; the 1x1 fast path benefits the most since
  /// the GEMM is then the whole forward.
  void run_forward(const ConvConfig& cfg, const Tensor& input,
                   const Tensor& filters, Tensor& output,
                   const Epilogue& epilogue) const override;
};

}  // namespace gpucnn::conv
