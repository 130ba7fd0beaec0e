#include "conv/conv_engine.hpp"

#include <source_location>

#include "blas/vector_ops.hpp"
#include "conv/depthwise_conv.hpp"
#include "conv/direct_conv.hpp"
#include "conv/fft_conv.hpp"
#include "conv/gemm_conv.hpp"
#include "conv/quantized_conv.hpp"
#include "conv/tiled_fft_conv.hpp"
#include "conv/winograd_conv.hpp"

namespace gpucnn::conv {

std::string_view to_string(Strategy s) {
  switch (s) {
    case Strategy::kDirect:
      return "direct";
    case Strategy::kUnrolling:
      return "unrolling";
    case Strategy::kFft:
      return "fft";
    case Strategy::kWinograd:
      return "winograd";
  }
  return "unknown";
}

void ConvEngine::forward(const ConvConfig& cfg, const Tensor& input,
                         const Tensor& filters, Tensor& output,
                         const Epilogue& epilogue) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(output.shape() == cfg.output_shape(), "output shape mismatch");
  check(epilogue.bias.empty() || epilogue.bias.size() == cfg.filters,
        "bias length must equal the filter count");
  check_fmt(supports(cfg), std::source_location::current(), name(),
            " does not support this convolution geometry");
  run_forward(cfg, input, filters, output, epilogue);
}

const PackedFilters* ConvEngine::own_pack(const Epilogue& epilogue,
                                         std::size_t panels) const {
  const PackedFilters* packed = epilogue.packed;
  return packed != nullptr && packed->format == name() &&
                 packed->panels.size() == panels
             ? packed
             : nullptr;
}

void ConvEngine::apply_epilogue(const ConvConfig& cfg,
                                const Epilogue& epilogue, Tensor& output) {
  if (!epilogue.bias.empty()) {
    blas::add_bias(output.data(), epilogue.bias, cfg.batch, cfg.filters,
                   cfg.output() * cfg.output());
  }
  if (epilogue.relu) {
    for (float& v : output.data()) v = v > 0.0F ? v : 0.0F;
  }
}

std::span<const ConvEngine* const> registry() {
  static const DirectConv direct;
  static const GemmConv unrolling;
  static const FftConv fft;  // half-spectrum
  static const TiledFftConv fft_tiled;
  static const WinogradConv winograd;
  static const DepthwiseConv depthwise;
  static const WinogradConv winograd_4x4(WinogradTile::kF4);
  static const QuantizedGemmConv unrolling_int8;
  static const ConvEngine* const all[] = {
      &direct,   &unrolling, &fft,          &fft_tiled,
      &winograd, &depthwise, &winograd_4x4, &unrolling_int8};
  return all;
}

const ConvEngine* find_engine(std::string_view name) {
  for (const ConvEngine* e : registry()) {
    if (e->name() == name) return e;
  }
  return nullptr;
}

const ConvEngine& strategy_engine(Strategy strategy) {
  for (const ConvEngine* e : registry()) {
    if (e->strategy() == strategy) return *e;
  }
  check(false, "unknown convolution strategy");
  return *registry().front();
}

}  // namespace gpucnn::conv
