#include "conv/fft_conv.hpp"

#include <vector>

#include "blas/cgemm.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace.hpp"
#include "fft/fft.hpp"
#include "fft/plan_cache.hpp"
#include "fft/rfft.hpp"

namespace gpucnn::conv {
namespace {

using blas::Complex;
using fft::Direction;
using fft::Plan;

using Spectrum = FftConv::Spectrum;

/// Bins a spectrum of transform size s stores in the given mode.
std::size_t bins_of(std::size_t s, Spectrum spectrum) {
  return spectrum == Spectrum::kHalf ? fft::half_spectrum_size(s) : s * s;
}

// Frequency-major spectrum store: bin-major, `rows * cols` complex values
// per bin, so each bin exposes a contiguous rows x cols matrix for the
// pointwise GEMM stage. In kHalf mode only the s*(s/2+1) Hermitian bins
// exist — products of Hermitian spectra stay Hermitian, so the whole
// pointwise pipeline runs on half the bins.
struct FreqMajor {
  FreqMajor(std::size_t bins, std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(bins * rows * cols) {}

  [[nodiscard]] std::span<Complex> bin(std::size_t b) {
    return {data_.data() + b * rows_ * cols_, rows_ * cols_};
  }
  [[nodiscard]] std::span<const Complex> bin(std::size_t b) const {
    return {data_.data() + b * rows_ * cols_, rows_ * cols_};
  }
  /// Element (row, col) of bin b.
  [[nodiscard]] Complex& at(std::size_t b, std::size_t row, std::size_t col) {
    return data_[(b * rows_ + row) * cols_ + col];
  }

  std::size_t rows_;
  std::size_t cols_;
  std::vector<Complex> data_;
};

// Pads `src` (src_h x src_w real, anchored at (pad, pad)) into an S x S
// real tile, runs the forward transform (R2C half-spectrum or full
// complex), and scatters bin j into dst.at(j, row, col).
void transform_scatter(const float* src, std::size_t src_h,
                       std::size_t src_w, std::size_t pad, const Plan& plan,
                       Spectrum spectrum, FreqMajor& dst, std::size_t row,
                       std::size_t col) {
  const std::size_t s = plan.size();
  ws::Scratch<float> padded(s * s, /*zero=*/true);
  for (std::size_t y = 0; y < src_h; ++y) {
    float* out_row = padded.data() + (y + pad) * s + pad;
    const float* in_row = src + y * src_w;
    for (std::size_t x = 0; x < src_w; ++x) out_row[x] = in_row[x];
  }
  if (spectrum == Spectrum::kHalf) {
    ws::Scratch<Complex> spec(fft::half_spectrum_size(s));
    fft::rfft2(padded.span(), spec.span(), plan);
    for (std::size_t j = 0; j < spec.size(); ++j) {
      dst.at(j, row, col) = spec.data()[j];
    }
  } else {
    ws::Scratch<Complex> buf(s * s);
    for (std::size_t j = 0; j < s * s; ++j) {
      buf.data()[j] = Complex(padded.data()[j], 0.0F);
    }
    fft::transform_2d(buf.span(), plan, plan, Direction::kForward);
    for (std::size_t j = 0; j < s * s; ++j) {
      dst.at(j, row, col) = buf.data()[j];
    }
  }
}

// Gathers one (row, col) series from `src` across bins, inverse-transforms
// it, and writes real parts of the (off_y, off_x)-anchored dst_h x dst_w
// window to `dst`.
void gather_inverse(const FreqMajor& src, std::size_t row, std::size_t col,
                    const Plan& plan, Spectrum spectrum, std::span<float> dst,
                    std::size_t dst_h, std::size_t dst_w, std::size_t off_y,
                    std::size_t off_x) {
  const std::size_t s = plan.size();
  const std::size_t bins = bins_of(s, spectrum);
  ws::Scratch<Complex> buf(bins);
  for (std::size_t j = 0; j < bins; ++j) {
    buf.data()[j] = src.data_[(j * src.rows_ + row) * src.cols_ + col];
  }
  if (spectrum == Spectrum::kHalf) {
    ws::Scratch<float> tile(s * s);
    fft::irfft2(buf.span(), tile.span(), plan);
    for (std::size_t y = 0; y < dst_h; ++y) {
      const float* in_row = tile.data() + (y + off_y) * s + off_x;
      float* out_row = dst.data() + y * dst_w;
      for (std::size_t x = 0; x < dst_w; ++x) out_row[x] = in_row[x];
    }
  } else {
    fft::transform_2d(buf.span(), plan, plan, Direction::kInverse);
    for (std::size_t y = 0; y < dst_h; ++y) {
      for (std::size_t x = 0; x < dst_w; ++x) {
        dst[y * dst_w + x] = buf.data()[(y + off_y) * s + (x + off_x)].real();
      }
    }
  }
}

// Transforms every (n, c) plane of a tensor into freq-major storage with
// bin matrices of shape (outer = tensor.n) x (inner = tensor.c). When
// `pad` is nonzero the real data is anchored at (pad, pad) inside the
// padded tile (used for padded inputs; filters and gradients use pad 0).
FreqMajor spectra_of(const Tensor& t, const Plan& plan, std::size_t pad,
                     Spectrum spectrum) {
  const auto& sh = t.shape();
  const std::size_t s = plan.size();
  FreqMajor out(bins_of(s, spectrum), sh.n, sh.c);
  parallel_for(0, sh.n * sh.c, [&](std::size_t job) {
    const std::size_t n = job / sh.c;
    const std::size_t c = job % sh.c;
    transform_scatter(t.plane(n, c), sh.h, sh.w, pad, plan, spectrum, out,
                      n, c);
  });
  return out;
}

}  // namespace

std::size_t FftConv::transform_size(const ConvConfig& cfg) {
  // next_pow2(i + 2p) suffices for all three passes: the largest index
  // any circular product touches is (o-1) + (k-1) = i + 2p - 1 for the
  // correlations, and the backward-data convolution's support is
  // o + k - 1 = i + 2p. This is the "extend the filter bank to the size
  // of the input" padding the paper attributes to fbfft.
  return fft::next_pow2(cfg.input + 2 * cfg.pad);
}

std::size_t FftConv::bins_for(std::size_t s) const {
  return bins_of(s, spectrum_);
}

void FftConv::run_forward(const ConvConfig& cfg, const Tensor& input,
                          const Tensor& filters, Tensor& output,
                          const Epilogue& epilogue) const {
  const std::size_t s = transform_size(cfg);
  const auto plan = fft::cached_plan(s);
  const std::size_t bins = bins_for(s);
  const std::size_t o = cfg.output();

  const FreqMajor x = spectra_of(input, *plan, cfg.pad, spectrum_);
  const FreqMajor w = spectra_of(filters, *plan, 0, spectrum_);

  // Pointwise stage: out(n,f) = sum_c x(n,c) * conj(w(f,c)) per bin.
  FreqMajor y(bins, cfg.batch, cfg.filters);
  parallel_for_chunks(0, bins, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      blas::cgemm_nt_conj(cfg.batch, cfg.filters, cfg.channels,
                          Complex{1.0F, 0.0F}, x.bin(b), cfg.channels,
                          w.bin(b), cfg.channels, Complex{0.0F, 0.0F},
                          y.bin(b), cfg.filters);
    }
  });

  parallel_for(0, cfg.batch * cfg.filters, [&](std::size_t job) {
    const std::size_t n = job / cfg.filters;
    const std::size_t f = job % cfg.filters;
    gather_inverse(y, n, f, *plan, spectrum_, {output.plane(n, f), o * o},
                   o, o, 0, 0);
  });
  apply_epilogue(cfg, epilogue, output);
}

void FftConv::backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                            const Tensor& filters,
                            Tensor& grad_input) const {
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(grad_input.shape() == cfg.input_shape(), "grad_input shape mismatch");
  check(supports(cfg), "FFT convolution requires stride 1");
  const std::size_t s = transform_size(cfg);
  const auto plan = fft::cached_plan(s);
  const std::size_t bins = bins_for(s);
  const std::size_t in = cfg.input;

  const FreqMajor g = spectra_of(grad_output, *plan, 0, spectrum_);
  const FreqMajor w = spectra_of(filters, *plan, 0, spectrum_);

  // gin_padded = gout (*) w, a true convolution: plain spectral product.
  FreqMajor gi(bins, cfg.batch, cfg.channels);
  parallel_for_chunks(0, bins, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      blas::cgemm_nn(cfg.batch, cfg.channels, cfg.filters,
                     Complex{1.0F, 0.0F}, g.bin(b), cfg.filters, w.bin(b),
                     cfg.channels, Complex{0.0F, 0.0F}, gi.bin(b),
                     cfg.channels);
    }
  });

  // The padded gradient lives on [0, i + 2p); the real input window is
  // anchored at (pad, pad).
  parallel_for(0, cfg.batch * cfg.channels, [&](std::size_t job) {
    const std::size_t n = job / cfg.channels;
    const std::size_t c = job % cfg.channels;
    gather_inverse(gi, n, c, *plan, spectrum_,
                   {grad_input.plane(n, c), in * in}, in, in, cfg.pad,
                   cfg.pad);
  });
}

void FftConv::backward_filter(const ConvConfig& cfg, const Tensor& input,
                              const Tensor& grad_output,
                              Tensor& grad_filters) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(grad_filters.shape() == cfg.filter_shape(),
        "grad_filters shape mismatch");
  check(supports(cfg), "FFT convolution requires stride 1");
  const std::size_t s = transform_size(cfg);
  const auto plan = fft::cached_plan(s);
  const std::size_t bins = bins_for(s);
  const std::size_t k = cfg.kernel;

  const FreqMajor x = spectra_of(input, *plan, cfg.pad, spectrum_);
  const FreqMajor g = spectra_of(grad_output, *plan, 0, spectrum_);

  // gw = corr(padded input, gout): gw(f,c) = sum_n conj(g(n,f)) * x(n,c).
  FreqMajor gw(bins, cfg.filters, cfg.channels);
  parallel_for_chunks(0, bins, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      blas::cgemm_ctn(cfg.filters, cfg.channels, cfg.batch,
                      Complex{1.0F, 0.0F}, g.bin(b), cfg.filters, x.bin(b),
                      cfg.channels, Complex{0.0F, 0.0F}, gw.bin(b),
                      cfg.channels);
    }
  });

  parallel_for(0, cfg.filters * cfg.channels, [&](std::size_t job) {
    const std::size_t f = job / cfg.channels;
    const std::size_t c = job % cfg.channels;
    gather_inverse(gw, f, c, *plan, spectrum_,
                   {grad_filters.plane(f, c), k * k}, k, k, 0, 0);
  });
}

}  // namespace gpucnn::conv
