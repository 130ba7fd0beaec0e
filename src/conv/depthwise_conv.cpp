#include "conv/depthwise_conv.hpp"

#include <algorithm>

#include "core/cpu_features.hpp"
#include "core/thread_pool.hpp"

#if GPUCNN_X86_SIMD
#include <immintrin.h>
#endif

namespace gpucnn::conv {
namespace {

#if GPUCNN_X86_SIMD

// out[i] += w * in[i] across one valid output-row segment: the stride-1
// forward inner loop, one kernel tap against one image row. The access
// pattern is unit-stride on both operands, which is the whole point of
// the depthwise engine — no im2col staging, just streamed rows.
__attribute__((target("avx2,fma"))) void tap_fmadd_avx2(float* out,
                                                        const float* in,
                                                        float w,
                                                        std::size_t n) {
  const __m256 vw = _mm256_set1_ps(w);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vo = _mm256_fmadd_ps(vw, _mm256_loadu_ps(in + i),
                                      _mm256_loadu_ps(out + i));
    _mm256_storeu_ps(out + i, vo);
  }
  for (; i < n; ++i) out[i] += w * in[i];
}

// row[i] = relu?(row[i] + b): the fused bias+ReLU write-back. Addition
// and max round identically scalar or vector, so the fused result stays
// bit-identical to forward() + add_bias + ReLU.
__attribute__((target("avx2,fma"))) void bias_relu_avx2(float* row, float b,
                                                        bool relu,
                                                        std::size_t n) {
  const __m256 vb = _mm256_set1_ps(b);
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_add_ps(vb, _mm256_loadu_ps(row + i));
    if (relu) v = _mm256_max_ps(v, zero);
    _mm256_storeu_ps(row + i, v);
  }
  for (; i < n; ++i) {
    float v = row[i] + b;
    if (relu) v = std::max(v, 0.0F);
    row[i] = v;
  }
}

inline bool use_avx2() { return simd::active() == simd::Level::kAvx2; }

#endif  // GPUCNN_X86_SIMD

void tap_fmadd(float* out, const float* in, float w, std::size_t n) {
#if GPUCNN_X86_SIMD
  if (use_avx2()) {
    tap_fmadd_avx2(out, in, w, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] += w * in[i];
}

void bias_relu(float* row, float b, bool relu, std::size_t n) {
#if GPUCNN_X86_SIMD
  if (use_avx2()) {
    bias_relu_avx2(row, b, relu, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    float v = row[i] + b;
    if (relu) v = std::max(v, 0.0F);
    row[i] = v;
  }
}

}  // namespace

void DepthwiseConv::run_forward(const ConvConfig& cfg, const Tensor& input,
                                const Tensor& filters, Tensor& output,
                                const Epilogue& epilogue) const {
  const float* bias = epilogue.bias.empty() ? nullptr : epilogue.bias.data();
  const bool relu = epilogue.relu;
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;
  const std::size_t mult = cfg.group_filters();

  // Each (image, filter) output plane reads exactly one input plane.
  parallel_for(0, cfg.batch * cfg.filters, [&](std::size_t job) {
    const std::size_t n = job / cfg.filters;
    const std::size_t f = job % cfg.filters;
    const std::size_t c = f / mult;  // the one channel this filter sees
    const float* in_plane = input.plane(n, c);
    const float* w_plane = filters.plane(f, 0);
    float* out_plane = output.plane(n, f);

    if (s == 1) {
      // Stride 1: each kernel tap contributes a shifted copy of an
      // input row to an output row; accumulate tap-by-tap with a
      // vectorised unit-stride fmadd over the valid x segment.
      for (std::size_t y = 0; y < o; ++y) {
        float* out_row = out_plane + y * o;
        std::fill(out_row, out_row + o, 0.0F);
        for (std::size_t ky = 0; ky < k; ++ky) {
          const std::size_t iy = y + ky;
          if (iy < p || iy >= in + p) continue;
          const float* in_row = in_plane + (iy - p) * in;
          for (std::size_t kx = 0; kx < k; ++kx) {
            if (in + p <= kx) continue;
            const std::size_t x0 = kx >= p ? 0 : p - kx;
            const std::size_t x1 = std::min(o, in + p - kx);
            if (x0 >= x1) continue;
            tap_fmadd(out_row + x0, in_row + (x0 + kx - p),
                      w_plane[ky * k + kx], x1 - x0);
          }
        }
        if (bias != nullptr || relu) {
          bias_relu(out_row, bias != nullptr ? bias[f] : 0.0F, relu, o);
        }
      }
    } else {
      // Strided: the window positions no longer share rows; fall back
      // to the per-pixel loop with a double accumulator (k*k taps).
      for (std::size_t y = 0; y < o; ++y) {
        float* out_row = out_plane + y * o;
        for (std::size_t x = 0; x < o; ++x) {
          double acc = 0.0;
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
          out_row[x] = static_cast<float>(acc);
        }
        if (bias != nullptr || relu) {
          bias_relu(out_row, bias != nullptr ? bias[f] : 0.0F, relu, o);
        }
      }
    }
  });
}

void DepthwiseConv::backward_data(const ConvConfig& cfg,
                                  const Tensor& grad_output,
                                  const Tensor& filters,
                                  Tensor& grad_input) const {
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(grad_input.shape() == cfg.input_shape(), "grad_input shape mismatch");
  check(cfg.groups == cfg.channels, "depthwise requires groups == channels");
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;
  const std::size_t mult = cfg.group_filters();

  // Each (image, channel) gradient plane gathers from the multiplier's
  // worth of filters that read this channel.
  parallel_for(0, cfg.batch * cfg.channels, [&](std::size_t job) {
    const std::size_t n = job / cfg.channels;
    const std::size_t c = job % cfg.channels;
    float* gin_plane = grad_input.plane(n, c);
    for (std::size_t iy = 0; iy < in; ++iy) {
      for (std::size_t ix = 0; ix < in; ++ix) {
        double acc = 0.0;
        for (std::size_t m = 0; m < mult; ++m) {
          const std::size_t f = c * mult + m;
          const float* gout_plane = grad_output.plane(n, f);
          const float* w_plane = filters.plane(f, 0);
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

void DepthwiseConv::backward_filter(const ConvConfig& cfg, const Tensor& input,
                                    const Tensor& grad_output,
                                    Tensor& grad_filters) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(grad_filters.shape() == cfg.filter_shape(),
        "grad_filters shape mismatch");
  check(cfg.groups == cfg.channels, "depthwise requires groups == channels");
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;
  const std::size_t mult = cfg.group_filters();

  // Each filter's k*k weight plane is independent; the batch + spatial
  // reduction happens inside the job with double accumulators.
  parallel_for(0, cfg.filters, [&](std::size_t f) {
    const std::size_t c = f / mult;
    float* gw_plane = grad_filters.plane(f, 0);
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
