#include "nn/lrn_layer.hpp"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.hpp"
#include "core/workspace.hpp"

namespace gpucnn::nn {
namespace {

/// Pixels per block: a block's double accumulators stay in L1.
constexpr std::size_t kBlock = 256;

/// Channels [lo, hi] in output channel c's window, clipped at the edges.
struct Window {
  std::size_t lo, hi;
};

Window window_of(std::size_t c, std::size_t channels, std::size_t size) {
  const std::size_t half = size / 2;
  return {c >= half ? c - half : 0, std::min(c + half, channels - 1)};
}

}  // namespace

void LrnLayer::scale(const Tensor& in, std::size_t n, std::size_t c,
                     std::size_t off, std::size_t len, double* b) const {
  const auto& s = in.shape();
  const Window win = window_of(c, s.c, size_);
  std::fill_n(b, len, 0.0);
  for (std::size_t cc = win.lo; cc <= win.hi; ++cc) {
    const float* src = in.plane(n, cc) + off;
    for (std::size_t i = 0; i < len; ++i) {
      const double v = src[i];
      b[i] += v * v;
    }
  }
  const double norm = alpha_ / static_cast<double>(size_);
  for (std::size_t i = 0; i < len; ++i) b[i] = k_ + norm * b[i];
}

void LrnLayer::neg_pow(const double* b, std::size_t len, double* p) const {
  if (beta_ == 0.75) {
    for (std::size_t i = 0; i < len; ++i) {
      const double root = std::sqrt(b[i]);
      p[i] = 1.0 / (root * std::sqrt(root));
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      p[i] = std::exp(-beta_ * std::log(b[i]));
    }
  }
}

void LrnLayer::forward(const Tensor& in, Tensor& out) {
  const auto& s = in.shape();
  out.resize(s);
  const std::size_t hw = s.h * s.w;

  parallel_for(0, s.n * s.c, [&](std::size_t job) {
    const std::size_t n = job / s.c;
    const std::size_t c = job % s.c;
    const float* src = in.plane(n, c);
    float* dst = out.plane(n, c);
    double b[kBlock];
    double p[kBlock];
    for (std::size_t off = 0; off < hw; off += kBlock) {
      const std::size_t len = std::min(kBlock, hw - off);
      scale(in, n, c, off, len, b);
      neg_pow(b, len, p);
      for (std::size_t i = 0; i < len; ++i) {
        dst[off + i] = static_cast<float>(src[off + i] * p[i]);
      }
    }
  });
}

void LrnLayer::backward(const Tensor& in, const Tensor& grad_out,
                        Tensor& grad_in) {
  const auto& s = in.shape();
  check(grad_out.shape() == s, "lrn: grad_out shape mismatch");
  grad_in.resize(s);
  const std::size_t hw = s.h * s.w;
  const double norm = alpha_ / static_cast<double>(size_);

  // gin(c) = gout(c) * b(c)^-beta - 2*beta*norm*in(c) * sum_{c' in
  // window(c)} t(c'), with t = gout * in * b^(-beta-1). The first pass
  // writes t for every plane; the second sums it over each window.
  ws::Scratch<double> t(s.count());
  parallel_for(0, s.n * s.c, [&](std::size_t job) {
    const std::size_t n = job / s.c;
    const std::size_t c = job % s.c;
    const float* x = in.plane(n, c);
    const float* g = grad_out.plane(n, c);
    double* tp = t.data() + job * hw;
    double b[kBlock];
    double p[kBlock];
    for (std::size_t off = 0; off < hw; off += kBlock) {
      const std::size_t len = std::min(kBlock, hw - off);
      scale(in, n, c, off, len, b);
      neg_pow(b, len, p);
      for (std::size_t i = 0; i < len; ++i) {
        tp[off + i] = static_cast<double>(g[off + i]) * x[off + i] *
                      (p[i] / b[i]);
      }
    }
  });
  parallel_for(0, s.n * s.c, [&](std::size_t job) {
    const std::size_t n = job / s.c;
    const std::size_t c = job % s.c;
    const Window win = window_of(c, s.c, size_);
    const float* x = in.plane(n, c);
    const float* g = grad_out.plane(n, c);
    float* gin = grad_in.plane(n, c);
    const double* sample_t = t.data() + n * s.c * hw;
    double b[kBlock];
    double p[kBlock];
    double cross[kBlock];
    for (std::size_t off = 0; off < hw; off += kBlock) {
      const std::size_t len = std::min(kBlock, hw - off);
      scale(in, n, c, off, len, b);
      neg_pow(b, len, p);
      std::fill_n(cross, len, 0.0);
      for (std::size_t cc = win.lo; cc <= win.hi; ++cc) {
        const double* tc = sample_t + cc * hw + off;
        for (std::size_t i = 0; i < len; ++i) cross[i] += tc[i];
      }
      for (std::size_t i = 0; i < len; ++i) {
        const double direct = static_cast<double>(g[off + i]) * p[i];
        gin[off + i] = static_cast<float>(
            direct - 2.0 * beta_ * norm * x[off + i] * cross[i]);
      }
    }
  });
}

}  // namespace gpucnn::nn
