// Tensor shapes and the convolution configuration 5-tuple used throughout
// the paper: (b, i, f, k, s) = (mini-batch, input size, filter count,
// kernel size, stride), plus channels and padding which the paper holds
// implicit (channels default to the layer's input depth, padding to 0).
#pragma once

#include <cstddef>
#include <ostream>
#include <string>

#include "core/error.hpp"

namespace gpucnn {

/// Shape of a 4-D tensor in NCHW layout.
struct TensorShape {
  std::size_t n = 0;  ///< batch
  std::size_t c = 0;  ///< channels
  std::size_t h = 0;  ///< height
  std::size_t w = 0;  ///< width

  [[nodiscard]] std::size_t count() const { return n * c * h * w; }
  [[nodiscard]] std::size_t spatial() const { return h * w; }

  friend bool operator==(const TensorShape&, const TensorShape&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const TensorShape& s) {
  return os << '[' << s.n << ',' << s.c << ',' << s.h << ',' << s.w << ']';
}

/// The paper's (b, i, f, k, s) 5-tuple, extended with input channels and
/// zero padding. Inputs and kernels are square, matching the paper's
/// evaluation space.
struct ConvConfig {
  std::size_t batch = 64;     ///< b: mini-batch size
  std::size_t input = 128;    ///< i: square input spatial size
  std::size_t channels = 3;   ///< input depth (paper: layer-dependent)
  std::size_t filters = 64;   ///< f: number of filters (output depth)
  std::size_t kernel = 11;    ///< k: square kernel size
  std::size_t stride = 1;     ///< s: stride
  std::size_t pad = 0;        ///< zero padding on each border
  std::size_t groups = 1;     ///< filter groups (AlexNet-style); each
                              ///< group sees channels/groups inputs

  /// Output spatial size; throws if the geometry is invalid.
  [[nodiscard]] std::size_t output() const {
    check(kernel >= 1 && stride >= 1, "kernel and stride must be positive");
    check(input + 2 * pad >= kernel, "kernel larger than padded input");
    check(groups >= 1 && channels % groups == 0 && filters % groups == 0,
          "channels and filters must divide evenly into groups");
    return (input + 2 * pad - kernel) / stride + 1;
  }

  /// Input channels seen by one group's filters.
  [[nodiscard]] std::size_t group_channels() const {
    return channels / groups;
  }
  /// Filters produced by one group.
  [[nodiscard]] std::size_t group_filters() const {
    return filters / groups;
  }
  /// One group's geometry as a standalone ungrouped configuration; a
  /// per-group loop offsets channel and filter planes by group and runs
  /// this view.
  [[nodiscard]] ConvConfig group_view() const {
    ConvConfig g = *this;
    g.channels = group_channels();
    g.filters = group_filters();
    g.groups = 1;
    return g;
  }

  [[nodiscard]] TensorShape input_shape() const {
    return {batch, channels, input, input};
  }
  [[nodiscard]] TensorShape filter_shape() const {
    return {filters, group_channels(), kernel, kernel};
  }
  [[nodiscard]] TensorShape output_shape() const {
    const std::size_t o = output();
    return {batch, filters, o, o};
  }

  /// FLOPs of one forward pass (multiply–add counted as 2 ops), the
  /// standard cost model for direct/unrolled convolution. Grouping
  /// divides the per-filter reduction depth.
  [[nodiscard]] double forward_flops() const {
    const auto o = static_cast<double>(output());
    return 2.0 * static_cast<double>(batch) * static_cast<double>(filters) *
           static_cast<double>(group_channels()) * o * o *
           static_cast<double>(kernel) * static_cast<double>(kernel);
  }

  /// Paper-style rendering "(b,i,f,k,s)".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ConvConfig&, const ConvConfig&) = default;
};

std::ostream& operator<<(std::ostream& os, const ConvConfig& c);

/// The five benchmarking configurations of Table I. Channel depths follow
/// the convnet-benchmarks layer definitions the paper cites ([27]).
/// Conv1 (128,128,96,11,1) c=3; Conv2 (128,128,96,3,1) c=64;
/// Conv3 (128,32,128,9,1) c=128; Conv4 (128,16,128,7,1) c=128;
/// Conv5 (128,13,384,3,1) c=384.
struct TableOne {
  static constexpr std::size_t kCount = 5;
  /// Returns configuration Conv{index+1}.
  static ConvConfig layer(std::size_t index);
  /// Human label "Conv1".."Conv5".
  static std::string name(std::size_t index);
};

}  // namespace gpucnn
