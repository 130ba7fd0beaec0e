// im2col / col2im: the unrolling primitives of Chellapilla et al. that
// Caffe, Torch-cunn, Theano-CorrMM and cuDNN build on (paper §II.B).
//
// im2col lowers one image (C, H, W) to a column matrix of shape
// (C*k*k) x (Ho*Wo): row (c*k*k + ky*k + kx), column (y*Wo + x) holds
// input(c, y*s + ky - p, x*s + kx - p), a pad value outside the image:
// zero for fp32, the activation zero point for quantized uint8.
// col2im is its adjoint (scatter-add), used by the backward-data pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/shape.hpp"

namespace gpucnn::conv {

/// Number of elements in the column matrix of one image.
[[nodiscard]] std::size_t col_buffer_size(const ConvConfig& cfg);

/// Lowers one image plane set `input` (C x H x W, contiguous) into `col`.
void im2col(const ConvConfig& cfg, std::span<const float> input,
            std::span<float> col);

/// The same lowering over a quantized image: padding positions hold
/// `pad`, the activation zero point (the quantization of real 0.0), so
/// the int8 GEMM's zero-point correction stays exact under padding.
void im2col(const ConvConfig& cfg, std::span<const std::uint8_t> input,
            std::span<std::uint8_t> col, std::uint8_t pad);

/// Adjoint of im2col: accumulates `col` back into `input` (which the
/// caller must zero first when a pure scatter is wanted).
void col2im(const ConvConfig& cfg, std::span<const float> col,
            std::span<float> input);

}  // namespace gpucnn::conv
