#include "nn/pool_layer.hpp"

#include <limits>

#include "core/thread_pool.hpp"

namespace gpucnn::nn {

PoolLayer::PoolLayer(std::string name, std::size_t window,
                     std::size_t stride, PoolMode mode, std::size_t pad)
    : Layer(std::move(name)),
      window_(window),
      stride_(stride),
      pad_(pad),
      mode_(mode) {
  check(window_ >= 1 && stride_ >= 1, "pool window/stride must be >= 1");
  check(pad_ < window_, "pool padding must be smaller than the window");
}

TensorShape PoolLayer::output_shape(const TensorShape& in) const {
  check(in.h + 2 * pad_ >= window_ && in.w + 2 * pad_ >= window_,
        "pool window larger than padded input");
  // Caffe-style ceil mode so stride-2 pooling of odd maps keeps the last
  // column (e.g. 13 -> 7 with window 3 stride 2).
  const auto out_dim = [&](std::size_t d) {
    return (d + 2 * pad_ - window_ + stride_ - 1) / stride_ + 1;
  };
  return {in.n, in.c, out_dim(in.h), out_dim(in.w)};
}

namespace {

/// The window maximum and its plane index.
struct Winner {
  float value = -std::numeric_limits<float>::infinity();
  std::size_t index = 0;
};

/// Walks one input plane's pooling windows.
struct Taps {
  std::size_t window, stride, pad;
  TensorShape in;

  /// Calls tap(idx) with the plane index of every in-bounds tap of
  /// output (oy, ox)'s window, row by row; padding taps are skipped.
  template <typename F>
  void operator()(std::size_t oy, std::size_t ox, F&& tap) const {
    for (std::size_t wy = 0; wy < window; ++wy) {
      const std::size_t iy = oy * stride + wy;
      if (iy < pad || iy >= in.h + pad) continue;
      for (std::size_t wx = 0; wx < window; ++wx) {
        const std::size_t ix = ox * stride + wx;
        if (ix < pad || ix >= in.w + pad) continue;
        tap((iy - pad) * in.w + (ix - pad));
      }
    }
  }

  /// Strict >, so the first maximum wins; a window with no tap above
  /// -inf keeps index 0.
  [[nodiscard]] Winner max(const float* plane, std::size_t oy,
                           std::size_t ox) const {
    Winner best;
    (*this)(oy, ox, [&](std::size_t idx) {
      if (plane[idx] > best.value) best = {plane[idx], idx};
    });
    return best;
  }
};

}  // namespace

void PoolLayer::forward(const Tensor& in, Tensor& out) {
  const auto& is = in.shape();
  const TensorShape os = output_shape(is);
  out.resize(os);
  const Taps taps{window_, stride_, pad_, is};

  parallel_for(0, is.n * is.c, [&](std::size_t job) {
    const std::size_t n = job / is.c;
    const std::size_t c = job % is.c;
    const float* src = in.plane(n, c);
    float* dst = out.plane(n, c);
    for (std::size_t oy = 0; oy < os.h; ++oy) {
      for (std::size_t ox = 0; ox < os.w; ++ox) {
        float& o = dst[oy * os.w + ox];
        if (mode_ == PoolMode::kMax) {
          o = taps.max(src, oy, ox).value;
          continue;
        }
        double sum = 0.0;
        std::size_t count = 0;
        taps(oy, ox, [&](std::size_t idx) {
          sum += src[idx];
          ++count;
        });
        o = count > 0 ? static_cast<float>(sum / static_cast<double>(count))
                      : 0.0F;
      }
    }
  });
}

void PoolLayer::backward(const Tensor& in, const Tensor& grad_out,
                         Tensor& grad_in) {
  const auto& is = in.shape();
  const TensorShape os = output_shape(is);
  check(grad_out.shape() == os, "pool: grad_out shape mismatch");
  grad_in.resize(is);
  const Taps taps{window_, stride_, pad_, is};

  parallel_for(0, is.n * is.c, [&](std::size_t job) {
    const std::size_t n = job / is.c;
    const std::size_t c = job % is.c;
    const float* src = in.plane(n, c);
    const float* gout = grad_out.plane(n, c);
    float* gin = grad_in.plane(n, c);
    for (std::size_t oy = 0; oy < os.h; ++oy) {
      for (std::size_t ox = 0; ox < os.w; ++ox) {
        const float g = gout[oy * os.w + ox];
        if (mode_ == PoolMode::kMax) {
          // Forward's winner, recomputed from this input.
          gin[taps.max(src, oy, ox).index] += g;
          continue;
        }
        // Average: spread over the window's in-bounds taps.
        std::size_t count = 0;
        taps(oy, ox, [&](std::size_t) { ++count; });
        if (count == 0) continue;
        const float share = g / static_cast<float>(count);
        taps(oy, ox, [&](std::size_t idx) { gin[idx] += share; });
      }
    }
  });
}

}  // namespace gpucnn::nn
