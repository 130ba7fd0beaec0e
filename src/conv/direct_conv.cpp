#include "conv/direct_conv.hpp"

#include "core/thread_pool.hpp"

namespace gpucnn::conv {

void DirectConv::run_forward(const ConvConfig& cfg, const Tensor& input,
                             const Tensor& filters, Tensor& output,
                             const Epilogue& epilogue) const {
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;

  // Each (image, filter) plane is independent.
  parallel_for(0, cfg.batch * cfg.filters, [&](std::size_t job) {
    const std::size_t n = job / cfg.filters;
    const std::size_t f = job % cfg.filters;
    const std::size_t group = f / cfg.group_filters();
    const std::size_t c0 = group * cfg.group_channels();
    float* out_plane = output.plane(n, f);
    for (std::size_t y = 0; y < o; ++y) {
      for (std::size_t x = 0; x < o; ++x) {
        double acc = 0.0;
        for (std::size_t c = 0; c < cfg.group_channels(); ++c) {
          const float* in_plane = input.plane(n, c0 + c);
          const float* w_plane = filters.plane(f, c);
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::size_t iy = y * s + ky;
            if (iy < p || iy >= in + p) continue;
            const float* in_row = in_plane + (iy - p) * in;
            const float* w_row = w_plane + ky * k;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::size_t ix = x * s + kx;
              if (ix < p || ix >= in + p) continue;
              acc += static_cast<double>(in_row[ix - p]) * w_row[kx];
            }
          }
        }
        out_plane[y * o + x] = static_cast<float>(acc);
      }
    }
  });
  apply_epilogue(cfg, epilogue, output);
}

void DirectConv::backward_data(const ConvConfig& cfg,
                               const Tensor& grad_output,
                               const Tensor& filters,
                               Tensor& grad_input) const {
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(grad_input.shape() == cfg.input_shape(), "grad_input shape mismatch");
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;

  // Each (image, channel) plane of the input gradient is independent.
  parallel_for(0, cfg.batch * cfg.channels, [&](std::size_t job) {
    const std::size_t n = job / cfg.channels;
    const std::size_t c = job % cfg.channels;
    const std::size_t group = c / cfg.group_channels();
    const std::size_t f0 = group * cfg.group_filters();
    const std::size_t c_in_group = c % cfg.group_channels();
    float* gin_plane = grad_input.plane(n, c);
    for (std::size_t iy = 0; iy < in; ++iy) {
      for (std::size_t ix = 0; ix < in; ++ix) {
        double acc = 0.0;
        // out position y satisfies y*s + ky = iy + p.
        for (std::size_t fg = 0; fg < cfg.group_filters(); ++fg) {
          const std::size_t f = f0 + fg;
          const float* gout_plane = grad_output.plane(n, f);
          const float* w_plane = filters.plane(f, c_in_group);
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::size_t target_y = iy + p;
            if (target_y < ky) break;
            const std::size_t ydist = target_y - ky;
            if (ydist % s != 0) continue;
            const std::size_t y = ydist / s;
            if (y >= o) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::size_t target_x = ix + p;
              if (target_x < kx) break;
              const std::size_t xdist = target_x - kx;
              if (xdist % s != 0) continue;
              const std::size_t x = xdist / s;
              if (x >= o) continue;
              acc += static_cast<double>(gout_plane[y * o + x]) *
                     w_plane[ky * k + kx];
            }
          }
        }
        gin_plane[iy * in + ix] = static_cast<float>(acc);
      }
    }
  });
}

void DirectConv::backward_filter(const ConvConfig& cfg, const Tensor& input,
                                 const Tensor& grad_output,
                                 Tensor& grad_filters) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(grad_filters.shape() == cfg.filter_shape(),
        "grad_filters shape mismatch");
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;

  // Each (filter, channel) weight plane is independent; the batch
  // reduction happens inside the job, so no atomics are needed.
  parallel_for(0, cfg.filters * cfg.group_channels(), [&](std::size_t job) {
    const std::size_t f = job / cfg.group_channels();
    const std::size_t c_in_group = job % cfg.group_channels();
    const std::size_t c =
        (f / cfg.group_filters()) * cfg.group_channels() + c_in_group;
    float* gw_plane = grad_filters.plane(f, c_in_group);
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        double acc = 0.0;
        for (std::size_t n = 0; n < cfg.batch; ++n) {
          const float* gout_plane = grad_output.plane(n, f);
          const float* in_plane = input.plane(n, c);
          for (std::size_t y = 0; y < o; ++y) {
            const std::size_t iy = y * s + ky;
            if (iy < p || iy >= in + p) continue;
            const float* in_row = in_plane + (iy - p) * in;
            const float* gout_row = gout_plane + y * o;
            for (std::size_t x = 0; x < o; ++x) {
              const std::size_t ix = x * s + kx;
              if (ix < p || ix >= in + p) continue;
              acc += static_cast<double>(gout_row[x]) * in_row[ix - p];
            }
          }
        }
        gw_plane[ky * k + kx] = static_cast<float>(acc);
      }
    }
  });
}

}  // namespace gpucnn::conv
