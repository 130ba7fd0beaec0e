#include "conv/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "core/thread_pool.hpp"

namespace gpucnn::conv {
namespace {

// For one (ky/kx, output-row) combination, the x loop splits into a
// padding prefix (ix < pad), a dense middle where every tap is in
// bounds, and a padding suffix (ix >= in + pad). Precomputing the split turns the
// per-element bounds checks of the naive loop into memset/memcpy (or a
// strided copy when stride > 1), which is what "vectorised im2col"
// means on a CPU: the copies saturate the load/store units.
struct XSplit {
  std::size_t lo;  ///< first in-bounds output x
  std::size_t hi;  ///< one past the last in-bounds output x
};

XSplit x_split(std::size_t o, std::size_t in, std::size_t s, std::size_t p,
               std::size_t kx) {
  // In bounds: p <= x*s + kx < in + p.
  const std::size_t lo = kx >= p ? 0 : (p - kx + s - 1) / s;
  std::size_t hi = 0;
  if (in + p > kx) {
    hi = std::min(o, (in + p - 1 - kx) / s + 1);
  }
  return {std::min(lo, hi), hi};
}

// The one im2col body. Pads are memset fills of the byte `pad`: 0 gives
// fp32's 0.0F, and a uint8 pad is its own byte.
template <typename T>
void lower(const ConvConfig& cfg, std::span<const T> input, std::span<T> col,
           std::uint8_t pad) {
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;
  check(input.size() == cfg.channels * in * in, "im2col input size mismatch");
  check(col.size() == col_buffer_size(cfg), "im2col col size mismatch");

  // Each channel writes a disjoint k*k*o*o block of `col`; lowering a
  // many-channel layer spreads planes across the pool.
  parallel_for(0, cfg.channels, [&](std::size_t c) {
    const T* plane = input.data() + c * in * in;
    T* dst = col.data() + c * k * k * o * o;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        const auto [x_lo, x_hi] = x_split(o, in, s, p, kx);
        for (std::size_t y = 0; y < o; ++y, dst += o) {
          const std::size_t iy = y * s + ky;
          if (iy < p || iy >= in + p) {
            std::memset(dst, pad, o * sizeof(T));
            continue;
          }
          const T* in_row = plane + (iy - p) * in;
          if (x_lo > 0) std::memset(dst, pad, x_lo * sizeof(T));
          if (s == 1) {
            // ix - p = x + kx - p is consecutive in x: one dense copy.
            if (x_hi > x_lo) {
              std::memcpy(dst + x_lo, in_row + (x_lo + kx - p),
                          (x_hi - x_lo) * sizeof(T));
            }
          } else {
            for (std::size_t x = x_lo; x < x_hi; ++x) {
              dst[x] = in_row[x * s + kx - p];
            }
          }
          if (x_hi < o) std::memset(dst + x_hi, pad, (o - x_hi) * sizeof(T));
        }
      }
    }
  });
}

}  // namespace

std::size_t col_buffer_size(const ConvConfig& cfg) {
  const std::size_t o = cfg.output();
  return cfg.channels * cfg.kernel * cfg.kernel * o * o;
}

void im2col(const ConvConfig& cfg, std::span<const float> input,
            std::span<float> col) {
  lower(cfg, input, col, 0);
}

void im2col(const ConvConfig& cfg, std::span<const std::uint8_t> input,
            std::span<std::uint8_t> col, std::uint8_t pad) {
  lower(cfg, input, col, pad);
}

void col2im(const ConvConfig& cfg, std::span<const float> col,
            std::span<float> input) {
  const std::size_t o = cfg.output();
  const std::size_t in = cfg.input;
  const std::size_t k = cfg.kernel;
  const std::size_t s = cfg.stride;
  const std::size_t p = cfg.pad;
  check(input.size() == cfg.channels * in * in, "col2im input size mismatch");
  check(col.size() == col_buffer_size(cfg), "col2im col size mismatch");

  // Distinct channels scatter into disjoint input planes, so the
  // channel loop parallelises safely; within a channel the (ky, kx)
  // taps overlap and stay sequential.
  parallel_for(0, cfg.channels, [&](std::size_t c) {
    float* plane = input.data() + c * in * in;
    const float* src = col.data() + c * k * k * o * o;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        const auto [x_lo, x_hi] = x_split(o, in, s, p, kx);
        for (std::size_t y = 0; y < o; ++y, src += o) {
          const std::size_t iy = y * s + ky;
          if (iy < p || iy >= in + p) continue;
          float* in_row = plane + (iy - p) * in;
          if (s == 1) {
            float* out = in_row + (x_lo + kx - p);
            for (std::size_t x = x_lo; x < x_hi; ++x) {
              out[x - x_lo] += src[x];
            }
          } else {
            for (std::size_t x = x_lo; x < x_hi; ++x) {
              in_row[x * s + kx - p] += src[x];
            }
          }
        }
      }
    }
  });
}

}  // namespace gpucnn::conv
