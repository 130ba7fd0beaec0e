#include "conv/gemm_conv.hpp"

#include "blas/gemm.hpp"
#include "blas/packed.hpp"
#include "conv/im2col.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace.hpp"

namespace gpucnn::conv {

using blas::Trans;

namespace {

// For a 1x1 stride-1 pad-0 convolution, im2col is the identity: the
// column matrix is (C x OhOw) with OhOw == input^2 — exactly the input
// plane block, same values, same leading dimension. The GEMMs can then
// consume (and col2im targets receive) the NCHW activations directly,
// skipping the staging copy entirely (cuConv's observation: the
// transform adds no locality on pointwise shapes).
bool pointwise(const ConvConfig& cfg) {
  return cfg.kernel == 1 && cfg.stride == 1 && cfg.pad == 0;
}

// Runs body(first, last) over the batch's images. When the batch gives
// every worker at least one image, images run as pool tasks and each
// GEMM inside runs on its task's thread; a smaller batch runs on the
// caller, where each image's GEMMs spread over the pool instead. Either
// way every image's arithmetic is the same, so outputs are too.
template <typename Body>
void for_images(std::size_t batch, const Body& body) {
  const std::size_t width = parallel_width();
  if (width > 1 && batch >= width) {
    parallel_for_chunks(0, batch, body);
  } else {
    body(0, batch);
  }
}

}  // namespace

std::shared_ptr<const PackedFilters> GemmConv::prepack(
    const ConvConfig& cfg, const Tensor& filters) const {
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  const std::size_t group_filters = cfg.group_filters();
  const std::size_t ckk = cfg.group_channels() * cfg.kernel * cfg.kernel;
  auto packed = std::make_shared<PackedFilters>();
  packed->format = name();
  packed->source = filters.data().data();
  packed->panels.reserve(cfg.groups);
  for (std::size_t g = 0; g < cfg.groups; ++g) {
    packed->panels.push_back(blas::pack_a(
        Trans::kNo, group_filters, ckk,
        {filters.plane(g * group_filters, 0), group_filters * ckk}, ckk));
  }
  return packed;
}

void GemmConv::run_forward(const ConvConfig& cfg, const Tensor& input,
                           const Tensor& filters, Tensor& output,
                           const Epilogue& epilogue) const {
  const PackedFilters* packed = own_pack(epilogue, cfg.groups);
  const float* bias = epilogue.bias.empty() ? nullptr : epilogue.bias.data();
  const ConvConfig gv = cfg.group_view();
  const std::size_t o = cfg.output();
  const std::size_t ckk = gv.channels * cfg.kernel * cfg.kernel;
  const std::size_t cols = o * o;
  const bool direct_b = pointwise(cfg);

  // Per image and group: out(F_g x OhOw) = W_g(F_g x CKK) * col, one
  // GEMM per image as Caffe makes one cuBLAS call per image. Bias +
  // ReLU (when requested) ride the GEMM's write-back epilogue: the GEMM
  // rows are this group's filters, so row i gets bias[g*F_g+i].
  // Pointwise shapes feed the GEMM the input planes directly (see
  // pointwise() above) — no im2col, same result bit-for-bit. Each task
  // holds its own column buffer and writes only its images' planes.
  for_images(cfg.batch, [&](std::size_t first, std::size_t last) {
    ws::Scratch<float> col(direct_b ? 0 : col_buffer_size(gv));
    for (std::size_t n = first; n < last; ++n) {
      for (std::size_t g = 0; g < cfg.groups; ++g) {
        std::span<const float> b{input.plane(n, g * gv.channels),
                                 gv.channels * cfg.input * cfg.input};
        if (!direct_b) {
          im2col(gv, b, col.span());
          b = col.span();
        }
        const blas::Epilogue ep{
            .bias = bias == nullptr ? nullptr : bias + g * gv.filters,
            .relu = epilogue.relu};
        const std::span<float> out{output.plane(n, g * gv.filters),
                                   gv.filters * cols};
        // A pack replaces the per-call weight packing; a stale one
        // stages the filters instead, inside blas.
        blas::sgemm(Trans::kNo, Trans::kNo, gv.filters, cols, ckk, 1.0F,
                    {filters.plane(g * gv.filters, 0), gv.filters * ckk},
                    ckk, b, cols, 0.0F, out, cols, ep, panel(packed, g));
      }
    }
  });
}

void GemmConv::backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                             const Tensor& filters,
                             Tensor& grad_input) const {
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(grad_input.shape() == cfg.input_shape(), "grad_input shape mismatch");
  const ConvConfig gv = cfg.group_view();
  const std::size_t o = cfg.output();
  const std::size_t ckk = gv.channels * cfg.kernel * cfg.kernel;
  const std::size_t cols = o * o;
  const bool direct_c = pointwise(cfg);
  if (!direct_c) grad_input.fill(0.0F);

  // Per image and group: col_grad(CKK x OhOw) = W_g^T(CKK x F_g) *
  // gout_g(F_g x OhOw), then col2im scatters into the input gradient.
  // On pointwise shapes every input cell receives exactly one column
  // cell, so the GEMM writes the gradient planes directly (beta = 0
  // replaces the zero-fill + scatter-add). An image scatters only into
  // its own planes, so images split over tasks like the forward's.
  for_images(cfg.batch, [&](std::size_t first, std::size_t last) {
    ws::Scratch<float> col(direct_c ? 0 : col_buffer_size(gv));
    for (std::size_t n = first; n < last; ++n) {
      for (std::size_t g = 0; g < cfg.groups; ++g) {
        std::span<float> gin{grad_input.plane(n, g * gv.channels),
                             gv.channels * cfg.input * cfg.input};
        blas::sgemm(
            Trans::kYes, Trans::kNo, ckk, cols, gv.filters, 1.0F,
            {filters.plane(g * gv.filters, 0), gv.filters * ckk}, ckk,
            {grad_output.plane(n, g * gv.filters), gv.filters * cols},
            cols, 0.0F, direct_c ? gin : col.span(), cols);
        if (!direct_c) col2im(gv, col.span(), gin);
      }
    }
  });
}

void GemmConv::backward_filter(const ConvConfig& cfg, const Tensor& input,
                               const Tensor& grad_output,
                               Tensor& grad_filters) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(grad_filters.shape() == cfg.filter_shape(),
        "grad_filters shape mismatch");
  const ConvConfig gv = cfg.group_view();
  const std::size_t o = cfg.output();
  const std::size_t ckk = gv.channels * cfg.kernel * cfg.kernel;
  const std::size_t cols = o * o;
  const bool direct_b = pointwise(cfg);
  ws::Scratch<float> col(direct_b ? 0 : col_buffer_size(gv));
  grad_filters.fill(0.0F);

  // Per image and group: gw_g(F_g x CKK) += gout_g * col^T. Pointwise
  // shapes read the input planes as the column matrix directly. The sum
  // over images stays in image order on this thread: per-task partial
  // sums would change the order of addition.
  for (std::size_t n = 0; n < cfg.batch; ++n) {
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      std::span<const float> b{
          input.plane(n, g * gv.channels),
          gv.channels * cfg.input * cfg.input};
      if (!direct_b) {
        im2col(gv, b, col.span());
        b = col.span();
      }
      blas::sgemm(Trans::kNo, Trans::kYes, gv.filters, ckk, cols, 1.0F,
                  {grad_output.plane(n, g * gv.filters), gv.filters * cols},
                  cols, b, cols, 1.0F,
                  {grad_filters.plane(g * gv.filters, 0),
                   gv.filters * ckk},
                  ckk);
    }
  }
}

}  // namespace gpucnn::conv
