// FFT-based convolution (paper §II.B, strategy of fbfft and Theano-fft).
//
// Pipeline, mirroring fbfft's kernel structure:
//   1. zero-pad images/filters to S x S, S = next_pow2(i + 2p + k - 1),
//      and transform to the frequency domain (real-input R2C 2-D FFT —
//      only the Hermitian half-spectrum, S x (S/2+1) bins, is kept);
//   2. transpose to frequency-major layout and run one small complex GEMM
//      per retained frequency bin (fbfft's BDHW -> HWBD Transpose +
//      Cgemm — halved bin count is where fbfft's real-input win comes
//      from, per Vasilache et al.);
//   3. transpose back, inverse C2R transform, and crop the valid region.
//
// Cross-correlation (forward, backward-filter) multiplies by the
// conjugated spectrum; true convolution (backward-data) multiplies
// directly. Stride must be 1 — exactly the shape limitation the paper
// reports for fbfft and Theano-fft. Transform plans come from the
// process-wide fft::PlanCache, so repeated layer calls of one geometry
// never rebuild twiddles.
#pragma once

#include "conv/conv_engine.hpp"

namespace gpucnn::conv {

class FftConv final : public ConvEngine {
 public:
  /// Spectrum storage. kHalf (default) exploits real-input conjugate
  /// symmetry: half the transform work, half the Cgemm bins. kFull
  /// keeps the full complex S x S grid; it exists as the cross-check
  /// reference for tests, the conv fuzzer and the before/after bench.
  enum class Spectrum { kHalf, kFull };

  explicit FftConv(Spectrum spectrum = Spectrum::kHalf)
      : spectrum_(spectrum) {}

  [[nodiscard]] Strategy strategy() const override { return Strategy::kFft; }
  [[nodiscard]] std::string_view name() const override {
    return spectrum_ == Spectrum::kHalf ? "fft" : "fft-complex";
  }
  /// A 1x1 kernel is excluded: its spectrum is a constant per filter,
  /// so the transforms are pure overhead on what is one plain GEMM.
  [[nodiscard]] bool supports(const ConvConfig& cfg) const override {
    return cfg.stride == 1 && cfg.groups == 1 && cfg.kernel > 1 &&
           cfg.kernel <= cfg.input + 2 * cfg.pad;
  }

  void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                     const Tensor& filters, Tensor& grad_input) const override;
  void backward_filter(const ConvConfig& cfg, const Tensor& input,
                       const Tensor& grad_output,
                       Tensor& grad_filters) const override;

  /// Padded transform size used for a configuration (exposed for tests
  /// and for the memory model, which keys off the same quantity).
  [[nodiscard]] static std::size_t transform_size(const ConvConfig& cfg);

 private:
  void run_forward(const ConvConfig& cfg, const Tensor& input,
                   const Tensor& filters, Tensor& output,
                   const Epilogue& epilogue) const override;

  /// Frequency bins the pointwise stage iterates for transform size s:
  /// s*(s/2+1) Hermitian bins or the full s*s grid.
  [[nodiscard]] std::size_t bins_for(std::size_t s) const;

  Spectrum spectrum_;
};

}  // namespace gpucnn::conv
