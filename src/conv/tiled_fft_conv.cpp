#include "conv/tiled_fft_conv.hpp"

#include <cmath>

#include "core/thread_pool.hpp"
#include "fft/fft.hpp"

namespace gpucnn::conv {

TiledFftConv::TiledFftConv(std::size_t tile) : tile_(tile) {
  check(tile == 0 || (fft::is_pow2(tile)),
        "tile size must be 0 (auto) or a power of two");
}

std::size_t TiledFftConv::tile_for(const ConvConfig& cfg) const {
  const std::size_t single = FftConv::transform_size(cfg);
  if (tile_ != 0) {
    check(tile_ > cfg.kernel, "tile must exceed the kernel size");
    return std::min(tile_, single);
  }
  // Auto: smallest power of two >= 2k whose total transform area does
  // not exceed the single transform's.
  const double out_span =
      static_cast<double>(cfg.input + 2 * cfg.pad - cfg.kernel + 1);
  std::size_t best = single;
  double best_area = static_cast<double>(single) * single;
  for (std::size_t t = fft::next_pow2(2 * cfg.kernel); t < single;
       t *= 2) {
    const double stride = static_cast<double>(t - cfg.kernel + 1);
    const double nt = std::ceil(out_span / stride);
    const double area = nt * nt * static_cast<double>(t) * t;
    if (area <= best_area) {
      best = t;
      best_area = area;
    }
  }
  return best;
}

void TiledFftConv::run_forward(const ConvConfig& cfg, const Tensor& input,
                               const Tensor& filters, Tensor& output,
                               const Epilogue& epilogue) const {
  const std::size_t tile = tile_for(cfg);
  if (tile >= FftConv::transform_size(cfg)) {
    untiled_.forward(cfg, input, filters, output, epilogue);
    return;
  }

  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t p = cfg.pad;
  const std::size_t out_tile = tile - cfg.kernel + 1;
  const std::size_t tiles = (o + out_tile - 1) / out_tile;

  // Per-tile configuration: a `tile`-sized valid convolution, unpadded
  // (padding is materialised while gathering patches).
  ConvConfig tcfg = cfg;
  tcfg.input = tile;
  tcfg.pad = 0;
  check(tcfg.output() == out_tile, "tile geometry mismatch");

  parallel_for(0, tiles * tiles, [&](std::size_t t_index) {
    const std::size_t ty = t_index / tiles;
    const std::size_t tx = t_index % tiles;
    // Gather the input patch (zero beyond the padded image).
    Tensor patch(cfg.batch, cfg.channels, tile, tile);
    for (std::size_t n = 0; n < cfg.batch; ++n) {
      for (std::size_t c = 0; c < cfg.channels; ++c) {
        const float* src = input.plane(n, c);
        float* dst = patch.plane(n, c);
        for (std::size_t y = 0; y < tile; ++y) {
          const std::size_t iy = ty * out_tile + y;  // padded coords
          if (iy < p || iy >= in + p) continue;
          for (std::size_t x = 0; x < tile; ++x) {
            const std::size_t ix = tx * out_tile + x;
            if (ix < p || ix >= in + p) continue;
            dst[y * tile + x] = src[(iy - p) * in + (ix - p)];
          }
        }
      }
    }
    Tensor tile_out(tcfg.output_shape());
    untiled_.forward(tcfg, patch, filters, tile_out);
    // Scatter the valid region into the output.
    for (std::size_t n = 0; n < cfg.batch; ++n) {
      for (std::size_t f = 0; f < cfg.filters; ++f) {
        const float* src = tile_out.plane(n, f);
        float* dst = output.plane(n, f);
        for (std::size_t y = 0; y < out_tile; ++y) {
          const std::size_t oy = ty * out_tile + y;
          if (oy >= o) break;
          for (std::size_t x = 0; x < out_tile; ++x) {
            const std::size_t ox = tx * out_tile + x;
            if (ox >= o) break;
            dst[oy * o + ox] = src[y * out_tile + x];
          }
        }
      }
    }
  });
  apply_epilogue(cfg, epilogue, output);
}

void TiledFftConv::backward_data(const ConvConfig& cfg,
                                 const Tensor& grad_output,
                                 const Tensor& filters,
                                 Tensor& grad_input) const {
  untiled_.backward_data(cfg, grad_output, filters, grad_input);
}

void TiledFftConv::backward_filter(const ConvConfig& cfg,
                                   const Tensor& input,
                                   const Tensor& grad_output,
                                   Tensor& grad_filters) const {
  untiled_.backward_filter(cfg, input, grad_output, grad_filters);
}

}  // namespace gpucnn::conv
