#include <array>
#include <memory>

#include "core/error.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/impl_factory.hpp"

namespace gpucnn::frameworks {

std::string_view to_string(FrameworkId id) {
  switch (id) {
    case FrameworkId::kCaffe:
      return "Caffe";
    case FrameworkId::kCudnn:
      return "cuDNN";
    case FrameworkId::kTorchCunn:
      return "Torch-cunn";
    case FrameworkId::kTheanoCorrMM:
      return "Theano-CorrMM";
    case FrameworkId::kCudaConvnet2:
      return "cuda-convnet2";
    case FrameworkId::kFbfft:
      return "fbfft";
    case FrameworkId::kTheanoFft:
      return "Theano-fft";
  }
  return "unknown";
}

const Framework& framework(FrameworkId id) {
  static const auto instances = [] {
    std::array<std::unique_ptr<Framework>, kAllFrameworks.size()> out;
    out[static_cast<std::size_t>(FrameworkId::kCaffe)] =
        detail::make_caffe();
    out[static_cast<std::size_t>(FrameworkId::kCudnn)] =
        detail::make_cudnn();
    out[static_cast<std::size_t>(FrameworkId::kTorchCunn)] =
        detail::make_torch_cunn();
    out[static_cast<std::size_t>(FrameworkId::kTheanoCorrMM)] =
        detail::make_theano_corrmm();
    out[static_cast<std::size_t>(FrameworkId::kCudaConvnet2)] =
        detail::make_cuda_convnet2();
    out[static_cast<std::size_t>(FrameworkId::kFbfft)] =
        detail::make_fbfft();
    out[static_cast<std::size_t>(FrameworkId::kTheanoFft)] =
        detail::make_theano_fft();
    return out;
  }();
  const auto index = static_cast<std::size_t>(id);
  check(index < instances.size(), "unknown framework id");
  return *instances[index];
}

std::span<const FrameworkId> all_frameworks() { return kAllFrameworks; }

}  // namespace gpucnn::frameworks
