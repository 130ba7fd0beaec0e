#include "nn/inception_layer.hpp"

#include "core/thread_pool.hpp"
#include "nn/activation_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/pool_layer.hpp"

namespace gpucnn::nn {

std::span<const InceptionParams> googlenet_inceptions() {
  static constexpr std::array<InceptionParams, 9> kModules{{
      {"inception_3a", 64, 96, 128, 16, 32, 32},
      {"inception_3b", 128, 128, 192, 32, 96, 64},
      {"inception_4a", 192, 96, 208, 16, 48, 64},
      {"inception_4b", 160, 112, 224, 24, 64, 64},
      {"inception_4c", 128, 128, 256, 24, 64, 64},
      {"inception_4d", 112, 144, 288, 32, 64, 64},
      {"inception_4e", 256, 160, 320, 32, 128, 128},
      {"inception_5a", 256, 160, 320, 32, 128, 128},
      {"inception_5b", 384, 192, 384, 48, 128, 128},
  }};
  return kModules;
}

// One branch: a small sequential stack with cached activations.
struct InceptionLayer::Branch {
  std::vector<std::unique_ptr<Layer>> layers;
  std::vector<Tensor> activations;
  std::size_t out_channels = 0;

  void forward(const Tensor& in) {
    activations.resize(layers.size());
    const Tensor* current = &in;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      layers[i]->forward(*current, activations[i]);
      current = &activations[i];
    }
  }

  /// Backpropagates `grad` (dL/d branch output) to dL/d branch input.
  void backward(const Tensor& in, Tensor grad, Tensor& grad_in) {
    Tensor scratch;
    for (std::size_t i = layers.size(); i-- > 0;) {
      const Tensor& layer_input = i == 0 ? in : activations[i - 1];
      layers[i]->backward(layer_input, grad, scratch);
      std::swap(grad, scratch);
    }
    grad_in = std::move(grad);
  }

  [[nodiscard]] const Tensor& output() const { return activations.back(); }
};

InceptionLayer::InceptionLayer(std::string name, std::size_t in_channels,
                               std::size_t spatial,
                               const InceptionParams& params)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      spatial_(spatial),
      params_(params) {
  const auto conv = [&](std::size_t channels, std::size_t filters,
                        std::size_t kernel, std::size_t pad,
                        const char* suffix) {
    ConvConfig cfg{.batch = 1, .input = spatial_, .channels = channels,
                   .filters = filters, .kernel = kernel, .stride = 1,
                   .pad = pad};
    return std::make_unique<ConvLayer>(name_ + suffix, cfg);
  };
  const auto relu = [&](const char* suffix) {
    return std::make_unique<ActivationLayer>(name_ + suffix);
  };

  branches_[0] = std::make_unique<Branch>();
  branches_[0]->layers.push_back(
      conv(in_channels_, params_.c1, 1, 0, "/1x1"));
  branches_[0]->layers.push_back(relu("/relu_1x1"));
  branches_[0]->out_channels = params_.c1;

  branches_[1] = std::make_unique<Branch>();
  branches_[1]->layers.push_back(
      conv(in_channels_, params_.c3_reduce, 1, 0, "/3x3_reduce"));
  branches_[1]->layers.push_back(relu("/relu_3x3_reduce"));
  branches_[1]->layers.push_back(
      conv(params_.c3_reduce, params_.c3, 3, 1, "/3x3"));
  branches_[1]->layers.push_back(relu("/relu_3x3"));
  branches_[1]->out_channels = params_.c3;

  branches_[2] = std::make_unique<Branch>();
  branches_[2]->layers.push_back(
      conv(in_channels_, params_.c5_reduce, 1, 0, "/5x5_reduce"));
  branches_[2]->layers.push_back(relu("/relu_5x5_reduce"));
  branches_[2]->layers.push_back(
      conv(params_.c5_reduce, params_.c5, 5, 2, "/5x5"));
  branches_[2]->layers.push_back(relu("/relu_5x5"));
  branches_[2]->out_channels = params_.c5;

  branches_[3] = std::make_unique<Branch>();
  branches_[3]->layers.push_back(std::make_unique<PoolLayer>(
      name_ + "/pool", 3, 1, PoolMode::kMax, /*pad=*/1));
  branches_[3]->layers.push_back(
      conv(in_channels_, params_.pool_proj, 1, 0, "/pool_proj"));
  branches_[3]->layers.push_back(relu("/relu_pool_proj"));
  branches_[3]->out_channels = params_.pool_proj;
}

InceptionLayer::~InceptionLayer() = default;

TensorShape InceptionLayer::output_shape(const TensorShape& in) const {
  check(in.c == in_channels_, "inception: input channel mismatch");
  check(in.h == spatial_ && in.w == spatial_,
        "inception: input spatial size mismatch");
  return {in.n, params_.output_channels(), in.h, in.w};
}

void InceptionLayer::forward(const Tensor& in, Tensor& out) {
  const TensorShape os = output_shape(in.shape());
  out.resize(os);
  // The four branches only read `in` and write disjoint state, so they
  // run concurrently on the pool — the dataflow parallelism the concat
  // topology exposes. The channel concat stays serial (cheap copies).
  parallel_for(0, branches_.size(),
               [&](std::size_t b) { branches_[b]->forward(in); });
  std::size_t channel_offset = 0;
  for (auto& branch : branches_) {
    const Tensor& result = branch->output();
    check(result.shape().c == branch->out_channels,
          "inception branch channel mismatch");
    for (std::size_t n = 0; n < os.n; ++n) {
      for (std::size_t c = 0; c < branch->out_channels; ++c) {
        const float* src = result.plane(n, c);
        float* dst = out.plane(n, channel_offset + c);
        std::copy(src, src + os.spatial(), dst);
      }
    }
    channel_offset += branch->out_channels;
  }
}

void InceptionLayer::backward(const Tensor& in, const Tensor& grad_out,
                              Tensor& grad_in) {
  check(grad_out.shape() == output_shape(in.shape()),
        "inception: grad_out shape mismatch");
  grad_in.resize(in.shape());
  grad_in.fill(0.0F);
  // Slice each branch's channels out of the concatenated gradient
  // (serial — shared reads of grad_out are cheap), then backpropagate
  // the four branches concurrently: parameter gradients live inside
  // each branch's own layers, so the only shared write is the final
  // serial sum into grad_in.
  std::array<Tensor, 4> branch_grads;
  std::array<Tensor, 4> branch_gins;
  std::size_t channel_offset = 0;
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    auto& branch = branches_[b];
    branch_grads[b].resize({in.shape().n, branch->out_channels,
                            in.shape().h, in.shape().w});
    for (std::size_t n = 0; n < in.shape().n; ++n) {
      for (std::size_t c = 0; c < branch->out_channels; ++c) {
        const float* src = grad_out.plane(n, channel_offset + c);
        std::copy(src, src + in.shape().spatial(),
                  branch_grads[b].plane(n, c));
      }
    }
    channel_offset += branch->out_channels;
  }
  parallel_for(0, branches_.size(), [&](std::size_t b) {
    branches_[b]->backward(in, std::move(branch_grads[b]),
                           branch_gins[b]);
  });
  for (const auto& branch_gin : branch_gins) {
    for (std::size_t i = 0; i < grad_in.count(); ++i) {
      grad_in.data()[i] += branch_gin.data()[i];
    }
  }
}

std::vector<Tensor*> InceptionLayer::parameters() {
  std::vector<Tensor*> out;
  for (auto& branch : branches_) {
    for (auto& layer : branch->layers) {
      for (Tensor* p : layer->parameters()) out.push_back(p);
    }
  }
  return out;
}

std::vector<Tensor*> InceptionLayer::gradients() {
  std::vector<Tensor*> out;
  for (auto& branch : branches_) {
    for (auto& layer : branch->layers) {
      for (Tensor* g : layer->gradients()) out.push_back(g);
    }
  }
  return out;
}

void InceptionLayer::initialize(Rng& rng) {
  for (auto& branch : branches_) {
    for (auto& layer : branch->layers) layer->initialize(rng);
  }
}

void InceptionLayer::set_training(bool training) {
  Layer::set_training(training);
  for (auto& branch : branches_) {
    for (auto& layer : branch->layers) layer->set_training(training);
  }
}

void InceptionLayer::set_auto_tune(bool on) {
  for (auto& branch : branches_) {
    for (auto& layer : branch->layers) layer->set_auto_tune(on);
  }
}

std::size_t InceptionLayer::fuse_relu_pairs() {
  std::size_t fused = 0;
  for (auto& branch : branches_) fused += fuse_conv_relu_pairs(branch->layers);
  return fused;
}

}  // namespace gpucnn::nn
