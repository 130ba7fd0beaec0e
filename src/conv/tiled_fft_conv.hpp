// Overlap-save tiled FFT convolution.
//
// Large inputs make single-transform FFT convolution pay for
// next-power-of-two padding (the Fig. 5(b) memory steps). The
// overlap-save decomposition instead covers the output with tiles of
// size (T - k + 1), each computed from a T x T input patch with a small
// transform; patches overlap by k - 1. This is the real algorithm behind
// the fbfft tile planner the performance model uses — implemented here
// in full so the numerics can be tested, not just costed.
//
// Each tile runs through the untiled engine, so tiles use the same
// half-spectrum R2C path, and every tile of a layer shares one cached
// plan (fft::PlanCache) — the tile transform is built once per process,
// not once per patch.
#pragma once

#include "conv/conv_engine.hpp"
#include "conv/fft_conv.hpp"

namespace gpucnn::conv {

class TiledFftConv final : public ConvEngine {
 public:
  /// `tile` is the transform edge length (power of two, > kernel). 0
  /// selects automatically: the smallest power of two >= 2k that yields
  /// no more total transform area than the single-transform approach.
  explicit TiledFftConv(std::size_t tile = 0);

  [[nodiscard]] Strategy strategy() const override { return Strategy::kFft; }
  [[nodiscard]] std::string_view name() const override {
    return "fft-tiled";
  }
  [[nodiscard]] bool supports(const ConvConfig& cfg) const override {
    return FftConv{}.supports(cfg);
  }

  /// Backward passes use the single-transform engine (as fbfft did:
  /// tiling was a forward-path optimisation).
  void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                     const Tensor& filters, Tensor& grad_input) const override;
  void backward_filter(const ConvConfig& cfg, const Tensor& input,
                       const Tensor& grad_output,
                       Tensor& grad_filters) const override;

  /// The tile size that forward() will use for this configuration.
  [[nodiscard]] std::size_t tile_for(const ConvConfig& cfg) const;

 private:
  /// Tiles run unfused through the untiled engine; bias and ReLU then
  /// apply once, over the whole scattered output.
  void run_forward(const ConvConfig& cfg, const Tensor& input,
                   const Tensor& filters, Tensor& output,
                   const Epilogue& epilogue) const override;

  std::size_t tile_;
  FftConv untiled_;
};

}  // namespace gpucnn::conv
