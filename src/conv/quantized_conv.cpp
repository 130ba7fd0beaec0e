#include "conv/quantized_conv.hpp"

#include <algorithm>

#include "blas/igemm.hpp"
#include "blas/packed.hpp"
#include "conv/im2col.hpp"
#include "core/error.hpp"
#include "core/workspace.hpp"

namespace gpucnn::conv {
namespace {

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
  const ConvConfig gv = cfg.group_view();
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
  const std::size_t group_elems = gv.channels * cfg.input * cfg.input;
  for (std::size_t n = 0; n < cfg.batch; ++n) {
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      im2col(gv, {qin.data() + n * image_elems + g * group_elems, group_elems},
             col.span(), pad_byte);
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

// Dynamic quantization: activations per-tensor from this batch's own
// range, weights per-channel from the filter tensor.
void QuantizedGemmConv::run_forward(const ConvConfig& cfg,
                                    const Tensor& input,
                                    const Tensor& filters, Tensor& output,
                                    const Epilogue& epilogue) const {
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
  quantized_gemm_forward(cfg, input, qw, nullptr, aq, epilogue.bias,
                         epilogue.relu, output);
}

void QuantizedGemmConv::backward_data(const ConvConfig&, const Tensor&,
                                      const Tensor&, Tensor&) const {
  throw Error("unrolling-int8 is inference-only: no backward_data");
}

void QuantizedGemmConv::backward_filter(const ConvConfig&, const Tensor&,
                                        const Tensor&, Tensor&) const {
  throw Error("unrolling-int8 is inference-only: no backward_filter");
}

}  // namespace gpucnn::conv
