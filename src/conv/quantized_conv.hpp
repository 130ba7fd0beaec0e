// Int8 quantized convolution forward (inference only).
//
// The fp32 unrolling engine's algorithm over quantized operands: the
// shared im2col lowering, then an int8 GEMM. QuantizedGemmConv is an
// *adapter*: fp32 tensors in, fp32 tensors out, quantizing internally —
// so it is a drop-in candidate for the autotuner's timing harness and
// the fuzzer's cross-checks. The engine quantizes dynamically per call
// (per-channel weights, per-tensor activations from the batch's own
// min/max); QuantizedConvLayer instead calls quantized_gemm_forward
// below with offline-quantized weights and a calibrated activation
// scale, skipping the per-call weight pass.
//
// Backward passes throw: quantization is an inference transform, and
// the autotuner only ever offers this engine for the forward pass.
#pragma once

#include "conv/conv_engine.hpp"
#include "quant/quant.hpp"

namespace gpucnn::conv {

/// Quantized filters packed once into igemm quad tiles (blas/packed.hpp),
/// one PackedMatrixI8 per group — the int8 twin of PackedFilters. The
/// forwards pass qw alongside, for blas to stage from when a pack is
/// stale.
struct PackedQFilters {
  std::vector<blas::PackedMatrixI8> groups;

  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto& g : groups) total += g.bytes();
    return total;
  }
};

/// Packs offline-quantized weights for reuse across every quantized
/// forward.
[[nodiscard]] PackedQFilters prepack_quantized_filters(
    const ConvConfig& cfg, const quant::QuantizedFilters& qw);

/// im2col + int8 GEMM forward with offline-quantized weights `qw`
/// (rows = cfg.filters, cols = group_channels * k * k) and fixed
/// activation parameters `aq`. Bias (length cfg.filters) and ReLU ride
/// the GEMM's re-quantizing write-back; output is dequantized fp32.
/// `packed` (built from qw by prepack_quantized_filters) supplies cached
/// weight tiles, bit-exact against the staged path it replaces; nullptr
/// packs qw inside each igemm call. A stale pack falls back inside blas
/// to reading qw.
void quantized_gemm_forward(const ConvConfig& cfg, const Tensor& input,
                            const quant::QuantizedFilters& qw,
                            const PackedQFilters* packed,
                            const quant::ActQuant& aq,
                            std::span<const float> bias, bool relu,
                            Tensor& output);

/// Dynamic-quantizing engine adapter over quantized_gemm_forward.
class QuantizedGemmConv final : public ConvEngine {
 public:
  [[nodiscard]] Strategy strategy() const override {
    return Strategy::kUnrolling;
  }
  [[nodiscard]] std::string_view name() const override {
    return "unrolling-int8";
  }
  [[nodiscard]] bool quantized() const override { return true; }
  [[nodiscard]] bool supports(const ConvConfig&) const override {
    return true;
  }

  [[noreturn]] void backward_data(const ConvConfig&, const Tensor&,
                                  const Tensor&, Tensor&) const override;
  [[noreturn]] void backward_filter(const ConvConfig&, const Tensor&,
                                    const Tensor&, Tensor&) const override;

 private:
  void run_forward(const ConvConfig& cfg, const Tensor& input,
                   const Tensor& filters, Tensor& output,
                   const Epilogue& epilogue) const override;
};

}  // namespace gpucnn::conv
