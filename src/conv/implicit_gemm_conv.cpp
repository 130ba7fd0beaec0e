#include "conv/implicit_gemm_conv.hpp"

#include <vector>

#include "blas/gemm.hpp"
#include "blas/packed.hpp"
#include "core/thread_pool.hpp"

namespace gpucnn::conv {
namespace {

// Tile width in output positions; the gathered column tile (CKK x kTile)
// is the only temporary, playing the role of cuDNN's shared-memory tile.
constexpr std::size_t kTile = 64;

struct Geometry {
  std::size_t o, in, k, s, p, ckk, positions;
};

// All three passes assume ungrouped geometry (ckk spans every channel,
// filter planes are channels wide); supports() declines groups > 1, so
// the autotuner/advisor never select this engine for grouped shapes.
// The guard keeps a direct mis-call from reading out of bounds.
Geometry geometry_of(const ConvConfig& cfg) {
  check(cfg.groups == 1, "implicit GEMM does not support grouped filters");
  const std::size_t o = cfg.output();
  return {o,
          cfg.input,
          cfg.kernel,
          cfg.stride,
          cfg.pad,
          cfg.channels * cfg.kernel * cfg.kernel,
          o * o};
}

// Gathers columns [col0, col0+cols) of the virtual im2col matrix of one
// image into `tile` (ckk x cols, row-major).
void gather_tile(const Geometry& g, std::size_t channels,
                 const float* image, std::size_t col0, std::size_t cols,
                 float* tile) {
  for (std::size_t c = 0; c < channels; ++c) {
    const float* plane = image + c * g.in * g.in;
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx) {
        float* row =
            tile + ((c * g.k + ky) * g.k + kx) * cols;
        for (std::size_t j = 0; j < cols; ++j) {
          const std::size_t pos = col0 + j;
          const std::size_t y = pos / g.o;
          const std::size_t x = pos % g.o;
          const std::size_t iy = y * g.s + ky;
          const std::size_t ix = x * g.s + kx;
          row[j] = (iy >= g.p && iy < g.in + g.p && ix >= g.p &&
                    ix < g.in + g.p)
                       ? plane[(iy - g.p) * g.in + (ix - g.p)]
                       : 0.0F;
        }
      }
    }
  }
}

// Adjoint of gather_tile: scatter-adds the tile back into the image.
void scatter_tile(const Geometry& g, std::size_t channels, float* image,
                  std::size_t col0, std::size_t cols, const float* tile) {
  for (std::size_t c = 0; c < channels; ++c) {
    float* plane = image + c * g.in * g.in;
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx) {
        const float* row =
            tile + ((c * g.k + ky) * g.k + kx) * cols;
        for (std::size_t j = 0; j < cols; ++j) {
          const std::size_t pos = col0 + j;
          const std::size_t y = pos / g.o;
          const std::size_t x = pos % g.o;
          const std::size_t iy = y * g.s + ky;
          const std::size_t ix = x * g.s + kx;
          if (iy >= g.p && iy < g.in + g.p && ix >= g.p &&
              ix < g.in + g.p) {
            plane[(iy - g.p) * g.in + (ix - g.p)] += row[j];
          }
        }
      }
    }
  }
}

}  // namespace

void ImplicitGemmConv::run_forward(const ConvConfig& cfg,
                                   const Tensor& input,
                                   const Tensor& filters, Tensor& output,
                                   const Epilogue& epilogue) const {
  const PackedFilters* packed = own_pack(epilogue, 1);
  const blas::Epilogue ep{
      .bias = epilogue.bias.empty() ? nullptr : epilogue.bias.data(),
      .relu = epilogue.relu};
  const Geometry g = geometry_of(cfg);

  parallel_for(0, cfg.batch, [&](std::size_t n) {
    std::vector<float> tile(g.ckk * kTile);
    std::vector<float> out_tile(cfg.filters * kTile);
    const float* image = input.plane(n, 0);
    for (std::size_t col0 = 0; col0 < g.positions; col0 += kTile) {
      const std::size_t cols = std::min(kTile, g.positions - col0);
      gather_tile(g, cfg.channels, image, col0, cols, tile.data());
      // out_tile(F x cols) = W(F x CKK) * tile(CKK x cols); the gathered
      // tile is reused across every filter — implicit GEMM's win. Bias
      // and ReLU land in the tile epilogue (rows are the filters), so
      // the copy-out below moves finished values.
      blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, cfg.filters, cols,
                  g.ckk, 1.0F, filters.data(), g.ckk,
                  {tile.data(), g.ckk * cols}, cols, 0.0F,
                  {out_tile.data(), cfg.filters * cols}, cols, ep,
                  panel(packed, 0));
      float* out_image = output.plane(n, 0);
      for (std::size_t f = 0; f < cfg.filters; ++f) {
        for (std::size_t j = 0; j < cols; ++j) {
          out_image[f * g.positions + col0 + j] = out_tile[f * cols + j];
        }
      }
    }
  });
}

void ImplicitGemmConv::backward_data(const ConvConfig& cfg,
                                     const Tensor& grad_output,
                                     const Tensor& filters,
                                     Tensor& grad_input) const {
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(grad_input.shape() == cfg.input_shape(),
        "grad_input shape mismatch");
  const Geometry g = geometry_of(cfg);
  grad_input.fill(0.0F);

  parallel_for(0, cfg.batch, [&](std::size_t n) {
    std::vector<float> gout_tile(cfg.filters * kTile);
    std::vector<float> col_tile(g.ckk * kTile);
    const float* gout_image = grad_output.plane(n, 0);
    float* gin_image = grad_input.plane(n, 0);
    for (std::size_t col0 = 0; col0 < g.positions; col0 += kTile) {
      const std::size_t cols = std::min(kTile, g.positions - col0);
      for (std::size_t f = 0; f < cfg.filters; ++f) {
        for (std::size_t j = 0; j < cols; ++j) {
          gout_tile[f * cols + j] = gout_image[f * g.positions + col0 + j];
        }
      }
      // col_tile(CKK x cols) = W^T(CKK x F) * gout_tile(F x cols)
      blas::sgemm(blas::Trans::kYes, blas::Trans::kNo, g.ckk, cols,
                  cfg.filters, 1.0F, filters.data(), g.ckk,
                  {gout_tile.data(), cfg.filters * cols}, cols, 0.0F,
                  {col_tile.data(), g.ckk * cols}, cols);
      scatter_tile(g, cfg.channels, gin_image, col0, cols,
                   col_tile.data());
    }
  });
}

void ImplicitGemmConv::backward_filter(const ConvConfig& cfg,
                                       const Tensor& input,
                                       const Tensor& grad_output,
                                       Tensor& grad_filters) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(grad_filters.shape() == cfg.filter_shape(),
        "grad_filters shape mismatch");
  const Geometry g = geometry_of(cfg);
  grad_filters.fill(0.0F);

  // Serial over images (the accumulation target is shared); the inner
  // GEMM parallelises.
  std::vector<float> tile(g.ckk * kTile);
  std::vector<float> gout_tile(cfg.filters * kTile);
  for (std::size_t n = 0; n < cfg.batch; ++n) {
    const float* image = input.plane(n, 0);
    const float* gout_image = grad_output.plane(n, 0);
    for (std::size_t col0 = 0; col0 < g.positions; col0 += kTile) {
      const std::size_t cols = std::min(kTile, g.positions - col0);
      gather_tile(g, cfg.channels, image, col0, cols, tile.data());
      for (std::size_t f = 0; f < cfg.filters; ++f) {
        for (std::size_t j = 0; j < cols; ++j) {
          gout_tile[f * cols + j] = gout_image[f * g.positions + col0 + j];
        }
      }
      // gw(F x CKK) += gout_tile(F x cols) * tile^T(cols x CKK)
      blas::sgemm(blas::Trans::kNo, blas::Trans::kYes, cfg.filters, g.ckk,
                  cols, 1.0F, {gout_tile.data(), cfg.filters * cols}, cols,
                  {tile.data(), g.ckk * cols}, cols, 1.0F,
                  grad_filters.data(), g.ckk);
    }
  }
}

}  // namespace gpucnn::conv
