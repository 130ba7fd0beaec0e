#include "conv/im2col.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace gpucnn::conv {
namespace {

// The lowering element by element: row (c*k + ky)*k + kx, column
// y*o + x holds input(c, y*s + ky - p, x*s + kx - p), or `pad` outside
// the image.
template <typename T>
std::vector<T> naive_im2col(const ConvConfig& cfg, const std::vector<T>& in,
                            T pad) {
  const std::size_t o = cfg.output();
  const std::size_t k = cfg.kernel;
  std::vector<T> col(col_buffer_size(cfg));
  for (std::size_t c = 0; c < cfg.channels; ++c) {
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        for (std::size_t y = 0; y < o; ++y) {
          for (std::size_t x = 0; x < o; ++x) {
            // Signed: a tap left of or above the image reads the pad.
            const auto iy = static_cast<long>(y * cfg.stride + ky) -
                            static_cast<long>(cfg.pad);
            const auto ix = static_cast<long>(x * cfg.stride + kx) -
                            static_cast<long>(cfg.pad);
            const auto n = static_cast<long>(cfg.input);
            const bool inside = iy >= 0 && iy < n && ix >= 0 && ix < n;
            col[(((c * k + ky) * k + kx) * o + y) * o + x] =
                inside ? in[(c * cfg.input + static_cast<std::size_t>(iy)) *
                                cfg.input +
                            static_cast<std::size_t>(ix)]
                       : pad;
          }
        }
      }
    }
  }
  return col;
}

TEST(Im2col, BufferSizeFormula) {
  const ConvConfig cfg{.batch = 1, .input = 5, .channels = 2, .filters = 1,
                       .kernel = 3, .stride = 1};
  // CKK x OhOw = (2*9) x (3*3)
  EXPECT_EQ(col_buffer_size(cfg), 18U * 9U);
}

TEST(Im2col, IdentityKernelCopiesInput) {
  // k=1, s=1, p=0: the column matrix is exactly the input.
  const ConvConfig cfg{.batch = 1, .input = 4, .channels = 3, .filters = 1,
                       .kernel = 1, .stride = 1};
  Rng rng(1);
  std::vector<float> input(3 * 16);
  for (auto& v : input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> col(col_buffer_size(cfg));
  im2col(cfg, input, col);
  EXPECT_EQ(col, input);
}

TEST(Im2col, HandComputedThreeByThree) {
  // 1 channel, 3x3 input, 2x2 kernel, stride 1 -> 2x2 outputs.
  const ConvConfig cfg{.batch = 1, .input = 3, .channels = 1, .filters = 1,
                       .kernel = 2, .stride = 1};
  const std::vector<float> input{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(col_buffer_size(cfg));
  im2col(cfg, input, col);
  // Row layout: (ky,kx) major, output position minor.
  const std::vector<float> want{
      1, 2, 4, 5,   // (0,0)
      2, 3, 5, 6,   // (0,1)
      4, 5, 7, 8,   // (1,0)
      5, 6, 8, 9};  // (1,1)
  EXPECT_EQ(col, want);
}

TEST(Im2col, ZeroPaddingInsertsZeros) {
  const ConvConfig cfg{.batch = 1, .input = 2, .channels = 1, .filters = 1,
                       .kernel = 3, .stride = 1, .pad = 1};
  const std::vector<float> input{1, 2, 3, 4};
  std::vector<float> col(col_buffer_size(cfg));
  im2col(cfg, input, col);
  // Output is 2x2. Row (ky=0,kx=0) reads input at (y-1, x-1):
  // positions (0,0)->pad, (0,1)->pad, (1,0)->pad, (1,1)->input(0,0)=1.
  EXPECT_EQ(col[0], 0.0F);
  EXPECT_EQ(col[1], 0.0F);
  EXPECT_EQ(col[2], 0.0F);
  EXPECT_EQ(col[3], 1.0F);
  // Centre row (ky=1,kx=1) is the input itself.
  const std::size_t centre = (1 * 3 + 1) * 4;
  EXPECT_EQ(col[centre + 0], 1.0F);
  EXPECT_EQ(col[centre + 1], 2.0F);
  EXPECT_EQ(col[centre + 2], 3.0F);
  EXPECT_EQ(col[centre + 3], 4.0F);
}

TEST(Im2col, StrideSkipsPositions) {
  const ConvConfig cfg{.batch = 1, .input = 5, .channels = 1, .filters = 1,
                       .kernel = 3, .stride = 2};
  std::vector<float> input(25);
  for (std::size_t i = 0; i < 25; ++i) input[i] = static_cast<float>(i);
  std::vector<float> col(col_buffer_size(cfg));
  im2col(cfg, input, col);
  // o = 2. Row (0,0): input(0,0)=0, input(0,2)=2, input(2,0)=10, input(2,2)=12.
  EXPECT_EQ(col[0], 0.0F);
  EXPECT_EQ(col[1], 2.0F);
  EXPECT_EQ(col[2], 10.0F);
  EXPECT_EQ(col[3], 12.0F);
}

TEST(Im2col, SizeValidation) {
  const ConvConfig cfg{.batch = 1, .input = 4, .channels = 1, .filters = 1,
                       .kernel = 2, .stride = 1};
  std::vector<float> input(15);  // wrong: should be 16
  std::vector<float> col(col_buffer_size(cfg));
  EXPECT_THROW(im2col(cfg, input, col), Error);
}

// Three-channel geometries over strides 1–3 and pads 0–3, kernels up to
// 7 over images down to one pixel.
std::vector<ConvConfig> sweep_configs() {
  constexpr std::size_t kKernels[] = {1, 2, 3, 5, 7};
  constexpr std::size_t kInputs[] = {1, 2, 5, 9};
  std::vector<ConvConfig> configs;
  for (std::size_t stride = 1; stride <= 3; ++stride) {
    for (std::size_t pad = 0; pad <= 3; ++pad) {
      for (const std::size_t kernel : kKernels) {
        for (const std::size_t input : kInputs) {
          if (input + 2 * pad < kernel) continue;
          configs.push_back({.batch = 1, .input = input, .channels = 3,
                             .filters = 1, .kernel = kernel,
                             .stride = stride, .pad = pad});
        }
      }
    }
  }
  return configs;
}

TEST(Im2col, Uint8AndFloatMatchNaiveReference) {
  // Both overloads share one body. The uint8 one pads with the
  // activation zero point; image values stay below it, so a tap that
  // copies where it should pad (or the reverse) cannot match by accident.
  constexpr std::uint8_t kPad = 200;
  Rng rng(11);
  std::size_t overhanging = 0;
  for (const ConvConfig& cfg : sweep_configs()) {
    SCOPED_TRACE(cfg.to_string());
    // The kernel overhangs the image plus its left pad: some tap
    // columns read only padding.
    if (cfg.kernel > cfg.input + cfg.pad) ++overhanging;
    const std::size_t elems = cfg.channels * cfg.input * cfg.input;

    std::vector<std::uint8_t> in_u8(elems);
    for (auto& v : in_u8) v = static_cast<std::uint8_t>(rng.uniform_int(kPad));
    std::vector<std::uint8_t> col_u8(col_buffer_size(cfg), 0);
    im2col(cfg, in_u8, col_u8, kPad);
    ASSERT_EQ(col_u8, naive_im2col(cfg, in_u8, kPad));

    std::vector<float> in_f32(elems);
    for (auto& v : in_f32) v = static_cast<float>(rng.uniform(1.0, 2.0));
    std::vector<float> col_f32(col_buffer_size(cfg), -1.0F);
    im2col(cfg, in_f32, col_f32);
    ASSERT_EQ(col_f32, naive_im2col(cfg, in_f32, 0.0F));
  }
  EXPECT_GT(overhanging, 0U);
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
  // property of an adjoint pair, which backward-data correctness rests on.
  const ConvConfig cfg{.batch = 1, .input = 6, .channels = 2, .filters = 1,
                       .kernel = 3, .stride = 2, .pad = 1};
  Rng rng(7);
  const std::size_t in_elems = cfg.channels * cfg.input * cfg.input;
  std::vector<float> x(in_elems);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> y(col_buffer_size(cfg));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> col(col_buffer_size(cfg));
  im2col(cfg, x, col);
  double lhs = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    lhs += static_cast<double>(col[i]) * y[i];
  }

  std::vector<float> back(in_elems, 0.0F);
  col2im(cfg, y, back);
  double rhs = 0.0;
  for (std::size_t i = 0; i < back.size(); ++i) {
    rhs += static_cast<double>(back[i]) * x[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-4 * (std::abs(lhs) + 1.0));
}

TEST(Col2im, AccumulatesOverlaps) {
  // 3x3 input, 2x2 kernel, stride 1: centre pixel (1,1) appears in all
  // four windows; a col buffer of ones must scatter 4 into it.
  const ConvConfig cfg{.batch = 1, .input = 3, .channels = 1, .filters = 1,
                       .kernel = 2, .stride = 1};
  std::vector<float> col(col_buffer_size(cfg), 1.0F);
  std::vector<float> image(9, 0.0F);
  col2im(cfg, col, image);
  EXPECT_EQ(image[4], 4.0F);  // centre
  EXPECT_EQ(image[0], 1.0F);  // corner appears once
  EXPECT_EQ(image[1], 2.0F);  // edge appears twice
}

TEST(Col2im, RoundTripWithoutOverlapIsIdentity) {
  // Non-overlapping windows (k == s): col2im(im2col(x)) == x.
  const ConvConfig cfg{.batch = 1, .input = 6, .channels = 2, .filters = 1,
                       .kernel = 2, .stride = 2};
  Rng rng(3);
  std::vector<float> x(2 * 36);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> col(col_buffer_size(cfg));
  im2col(cfg, x, col);
  std::vector<float> back(x.size(), 0.0F);
  col2im(cfg, col, back);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(back[i], x[i]);
}

}  // namespace
}  // namespace gpucnn::conv
