#include "conv/quantized_conv.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "blas/igemm.hpp"
#include "blas/packed.hpp"
#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace.hpp"

namespace gpucnn::conv {
namespace {

// Tile width of the implicit path, matching the fp32 engine.
constexpr std::size_t kTile = 64;

// One group's geometry as a standalone ungrouped configuration.
ConvConfig group_view(const ConvConfig& cfg) {
  ConvConfig g = cfg;
  g.channels = cfg.group_channels();
  g.filters = cfg.group_filters();
  g.groups = 1;
  return g;
}

// Group `g`'s weight pack for igemm's pack argument; nullptr (stage the
// quantized weights) when there is no pack.
const blas::PackedMatrixI8* group_pack(const PackedQFilters* packed,
                                       std::size_t g) {
  return packed == nullptr ? nullptr : &packed->groups[g];
}

void validate_quantized_forward(const ConvConfig& cfg, const Tensor& input,
                                const quant::QuantizedFilters& qw,
                                const quant::ActQuant& aq,
                                std::span<const float> bias,
                                const Tensor& output) {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(output.shape() == cfg.output_shape(), "output shape mismatch");
  const std::size_t ckk =
      cfg.group_channels() * cfg.kernel * cfg.kernel;
  check(qw.rows == cfg.filters && qw.cols == ckk,
        "quantized filter matrix shape mismatch");
  check(bias.empty() || bias.size() == cfg.filters,
        "bias length must equal the filter count");
  quant::validate(aq);
}

// im2col over an already-quantized uint8 image (C x H x W planes).
// Padding positions hold the activation zero point — the quantization
// of real 0.0 — so the zero-point correction (which assumes every
// column entry was quantized under `aq`) stays exact under padding.
void im2col_u8(const ConvConfig& gv, const std::uint8_t* input,
               std::uint8_t pad_value, std::uint8_t* col) {
  const std::size_t o = gv.output();
  const std::size_t in = gv.input;
  const std::size_t k = gv.kernel;
  const std::size_t s = gv.stride;
  const std::size_t p = gv.pad;
  for (std::size_t c = 0; c < gv.channels; ++c) {
    const std::uint8_t* plane = input + c * in * in;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        std::uint8_t* row = col + ((c * k + ky) * k + kx) * o * o;
        for (std::size_t y = 0; y < o; ++y) {
          const std::size_t iy = y * s + ky;
          std::uint8_t* dst = row + y * o;
          if (iy < p || iy >= in + p) {
            std::memset(dst, pad_value, o);
            continue;
          }
          const std::uint8_t* src = plane + (iy - p) * in;
          if (s == 1) {
            // ix = x + kx is monotone in x: the valid span
            // p <= ix < in + p is one contiguous run, so the row is
            // pad | memcpy | pad.
            const std::size_t x_lo = kx < p ? p - kx : 0;
            const std::size_t x_hi =
                kx >= in + p ? 0 : std::min(o, in + p - kx);
            if (x_lo > 0) std::memset(dst, pad_value, std::min(x_lo, o));
            if (x_hi > x_lo) {
              std::memcpy(dst + x_lo, src + x_lo + kx - p, x_hi - x_lo);
            }
            if (x_hi < o) std::memset(dst + x_hi, pad_value, o - x_hi);
            continue;
          }
          for (std::size_t x = 0; x < o; ++x) {
            const std::size_t ix = x * s + kx;
            dst[x] = (ix >= p && ix < in + p) ? src[ix - p] : pad_value;
          }
        }
      }
    }
  }
}

// uint8 twin of the fp32 implicit engine's gather_tile.
void gather_tile_u8(const ConvConfig& cfg, const std::uint8_t* image,
                    std::uint8_t pad_value, std::size_t col0,
                    std::size_t cols, std::uint8_t* tile) {
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;
  for (std::size_t c = 0; c < cfg.channels; ++c) {
    const std::uint8_t* plane = image + c * in * in;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        std::uint8_t* row = tile + ((c * k + ky) * k + kx) * cols;
        for (std::size_t j = 0; j < cols; ++j) {
          const std::size_t pos = col0 + j;
          const std::size_t y = pos / o;
          const std::size_t x = pos % o;
          const std::size_t iy = y * s + ky;
          const std::size_t ix = x * s + kx;
          row[j] = (iy >= p && iy < in + p && ix >= p && ix < in + p)
                       ? plane[(iy - p) * in + (ix - p)]
                       : pad_value;
        }
      }
    }
  }
}

// Per-row epilogue arrays: combined dequant scale s_a * s_w[f] and the
// activation-zero-point correction zp * sum(w_q[f]).
void fill_epilogue_arrays(const quant::QuantizedFilters& qw,
                          const quant::ActQuant& aq, float* scales,
                          std::int32_t* offsets) {
  for (std::size_t r = 0; r < qw.rows; ++r) {
    scales[r] = aq.scale * qw.scales[r];
    offsets[r] = aq.zero_point * qw.row_sums[r];
  }
}

// Dynamic-quantization front end shared by both engine adapters:
// activations quantized per-tensor from this batch's own range, weights
// per-channel from the filter tensor.
void dynamic_forward(const ConvConfig& cfg, const Tensor& input,
                     const Tensor& filters, std::span<const float> bias,
                     bool relu, Tensor& output, bool implicit) {
  const std::span<const float> in = input.data();
  check(!in.empty(), "quantized forward needs a non-empty input");
  float lo = in[0];
  float hi = in[0];
  for (const float v : in) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const quant::ActQuant aq = quant::choose_act_quant(lo, hi);
  const std::size_t ckk =
      cfg.group_channels() * cfg.kernel * cfg.kernel;
  const quant::QuantizedFilters qw =
      quant::quantize_filters(filters.data(), cfg.filters, ckk);
  if (implicit) {
    quantized_implicit_forward(cfg, input, qw, nullptr, aq, bias, relu,
                               output);
  } else {
    quantized_gemm_forward(cfg, input, qw, nullptr, aq, bias, relu, output);
  }
}

}  // namespace

void quantized_gemm_forward(const ConvConfig& cfg, const Tensor& input,
                            const quant::QuantizedFilters& qw,
                            const PackedQFilters* packed,
                            const quant::ActQuant& aq,
                            std::span<const float> bias, bool relu,
                            Tensor& output) {
  validate_quantized_forward(cfg, input, qw, aq, bias, output);
  check(packed == nullptr || packed->groups.size() == cfg.groups,
        "packed filter group count mismatch");
  const ConvConfig gv = group_view(cfg);
  const std::size_t o = cfg.output();
  const std::size_t ckk = gv.channels * cfg.kernel * cfg.kernel;
  const std::size_t cols = o * o;

  ws::Scratch<std::uint8_t> qin(input.count());
  quant::quantize_acts(input.data(), aq, qin.span());
  const auto pad_byte = static_cast<std::uint8_t>(aq.zero_point);

  ws::Scratch<float> scales(cfg.filters);
  ws::Scratch<std::int32_t> offsets(cfg.filters);
  fill_epilogue_arrays(qw, aq, scales.data(), offsets.data());

  ws::Scratch<std::uint8_t> col(ckk * cols);
  const std::size_t image_elems = cfg.channels * cfg.input * cfg.input;
  for (std::size_t n = 0; n < cfg.batch; ++n) {
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      im2col_u8(gv,
                qin.data() + n * image_elems +
                    g * gv.channels * cfg.input * cfg.input,
                pad_byte, col.data());
      blas::QEpilogue ep;
      ep.scales = scales.data() + g * gv.filters;
      ep.row_offsets = offsets.data() + g * gv.filters;
      ep.bias = bias.empty() ? nullptr : bias.data() + g * gv.filters;
      ep.relu = relu;
      const std::span<float> out{output.plane(n, g * gv.filters),
                                 gv.filters * cols};
      blas::igemm(gv.filters, cols, ckk,
                  {qw.data.data() + g * gv.filters * ckk, gv.filters * ckk},
                  ckk, col.span(), cols, ep, out, cols, group_pack(packed, g));
    }
  }
}

void quantized_implicit_forward(const ConvConfig& cfg, const Tensor& input,
                                const quant::QuantizedFilters& qw,
                                const PackedQFilters* packed,
                                const quant::ActQuant& aq,
                                std::span<const float> bias, bool relu,
                                Tensor& output) {
  validate_quantized_forward(cfg, input, qw, aq, bias, output);
  check(cfg.groups == 1,
        "quantized implicit GEMM does not support grouped filters");
  check(packed == nullptr || packed->groups.size() == 1,
        "packed filter group count mismatch");
  const std::size_t o = cfg.output();
  const std::size_t ckk = cfg.channels * cfg.kernel * cfg.kernel;
  const std::size_t positions = o * o;

  ws::Scratch<std::uint8_t> qin(input.count());
  quant::quantize_acts(input.data(), aq, qin.span());
  const auto pad_byte = static_cast<std::uint8_t>(aq.zero_point);

  ws::Scratch<float> scales(cfg.filters);
  ws::Scratch<std::int32_t> offsets(cfg.filters);
  fill_epilogue_arrays(qw, aq, scales.data(), offsets.data());
  blas::QEpilogue ep;
  ep.scales = scales.data();
  ep.row_offsets = offsets.data();
  ep.bias = bias.empty() ? nullptr : bias.data();
  ep.relu = relu;

  const std::size_t image_elems = cfg.channels * cfg.input * cfg.input;
  parallel_for(0, cfg.batch, [&](std::size_t n) {
    ws::Scratch<std::uint8_t> tile(ckk * kTile);
    ws::Scratch<float> out_tile(cfg.filters * kTile);
    const std::uint8_t* image = qin.data() + n * image_elems;
    float* out_image = output.plane(n, 0);
    for (std::size_t col0 = 0; col0 < positions; col0 += kTile) {
      const std::size_t cols = std::min(kTile, positions - col0);
      gather_tile_u8(cfg, image, pad_byte, col0, cols, tile.data());
      blas::igemm(cfg.filters, cols, ckk, {qw.data.data(), qw.data.size()},
                  ckk, {tile.data(), ckk * cols}, cols, ep,
                  {out_tile.data(), cfg.filters * cols}, cols,
                  group_pack(packed, 0));
      for (std::size_t f = 0; f < cfg.filters; ++f) {
        for (std::size_t j = 0; j < cols; ++j) {
          out_image[f * positions + col0 + j] =
              out_tile.data()[f * cols + j];
        }
      }
    }
  });
}

PackedQFilters prepack_quantized_filters(const ConvConfig& cfg,
                                         const quant::QuantizedFilters& qw) {
  const std::size_t group_filters = cfg.group_filters();
  const std::size_t ckk =
      cfg.group_channels() * cfg.kernel * cfg.kernel;
  check(qw.rows == cfg.filters && qw.cols == ckk,
        "quantized filter matrix shape mismatch");
  PackedQFilters packed;
  packed.groups.reserve(cfg.groups);
  for (std::size_t g = 0; g < cfg.groups; ++g) {
    packed.groups.push_back(blas::pack_a_i8(
        group_filters, ckk,
        {qw.data.data() + g * group_filters * ckk, group_filters * ckk},
        ckk));
  }
  return packed;
}

void QuantizedGemmConv::run_forward(const ConvConfig& cfg,
                                    const Tensor& input,
                                    const Tensor& filters, Tensor& output,
                                    const Epilogue& epilogue) const {
  dynamic_forward(cfg, input, filters, epilogue.bias, epilogue.relu, output,
                  /*implicit=*/false);
}

void QuantizedGemmConv::backward_data(const ConvConfig&, const Tensor&,
                                      const Tensor&, Tensor&) const {
  throw Error("unrolling-int8 is inference-only: no backward_data");
}

void QuantizedGemmConv::backward_filter(const ConvConfig&, const Tensor&,
                                        const Tensor&, Tensor&) const {
  throw Error("unrolling-int8 is inference-only: no backward_filter");
}

void QuantizedImplicitGemmConv::run_forward(const ConvConfig& cfg,
                                            const Tensor& input,
                                            const Tensor& filters,
                                            Tensor& output,
                                            const Epilogue& epilogue) const {
  dynamic_forward(cfg, input, filters, epilogue.bias, epilogue.relu, output,
                  /*implicit=*/true);
}

void QuantizedImplicitGemmConv::backward_data(const ConvConfig&,
                                              const Tensor&, const Tensor&,
                                              Tensor&) const {
  throw Error("implicit-int8 is inference-only: no backward_data");
}

void QuantizedImplicitGemmConv::backward_filter(const ConvConfig&,
                                                const Tensor&,
                                                const Tensor&,
                                                Tensor&) const {
  throw Error("implicit-int8 is inference-only: no backward_filter");
}

}  // namespace gpucnn::conv
