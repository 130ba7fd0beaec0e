// Internal factory functions, one per implementation model; used by the
// registry only.
#pragma once

#include <memory>

#include "frameworks/framework.hpp"

namespace gpucnn::frameworks::detail {

[[nodiscard]] std::unique_ptr<Framework> make_caffe();
[[nodiscard]] std::unique_ptr<Framework> make_cudnn();
[[nodiscard]] std::unique_ptr<Framework> make_torch_cunn();
[[nodiscard]] std::unique_ptr<Framework> make_theano_corrmm();
[[nodiscard]] std::unique_ptr<Framework> make_cuda_convnet2();
[[nodiscard]] std::unique_ptr<Framework> make_fbfft();
[[nodiscard]] std::unique_ptr<Framework> make_theano_fft();

}  // namespace gpucnn::frameworks::detail
