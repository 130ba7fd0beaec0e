#include "nn/network.hpp"

#include <algorithm>

#include "nn/conv_layer.hpp"
#include "nn/quantized_conv_layer.hpp"
#include "obs/metrics.hpp"

namespace gpucnn::nn {
namespace {

/// Offsets are 64-byte (16-float) aligned so arena slices keep the same
/// alignment guarantee owned tensors get from AlignedAllocator.
constexpr std::size_t kAlignFloats = 16;

std::size_t align_up(std::size_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

}  // namespace

TensorShape Network::output_shape(TensorShape in) const {
  for (const auto& layer : layers_) in = layer->output_shape(in);
  return in;
}

void Network::plan_activations(const TensorShape& input_shape) {
  // Lifetime analysis over the sequential schedule: activation i is
  // produced at step i and last read at step i+1 (layer i+1's input), so
  // its interval is [i, i+1] and only adjacent activations ever overlap.
  // The final activation is returned to the caller and stays owned.
  const std::size_t n = layers_.size();
  std::vector<TensorShape> shapes(n);
  TensorShape shape = input_shape;
  naive_bytes_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    shape = layers_[i]->output_shape(shape);
    shapes[i] = shape;
    naive_bytes_ += shape.count() * sizeof(float);
  }

  struct Slot {
    std::size_t offset, size, last_step;
  };
  std::vector<Slot> live;
  std::vector<std::size_t> offsets(n, 0);
  std::size_t arena_floats = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t size = align_up(shapes[i].count());
    // Greedy first-fit: lowest offset not overlapping any buffer whose
    // lifetime intersects [i, i+1].
    std::erase_if(live, [i](const Slot& s) { return s.last_step < i; });
    std::sort(live.begin(), live.end(),
              [](const Slot& a, const Slot& b) {
                return a.offset < b.offset;
              });
    std::size_t offset = 0;
    for (const Slot& s : live) {
      if (offset + size <= s.offset) break;
      offset = std::max(offset, s.offset + s.size);
    }
    offsets[i] = offset;
    live.push_back({offset, size, i + 1});
    arena_floats = std::max(arena_floats, offset + size);
  }

  arena_.resize(arena_floats);
  activations_.resize(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    activations_[i].resize({});  // shrink shape before rebinding
    activations_[i].bind_external(arena_.data() + offsets[i],
                                  align_up(shapes[i].count()));
    activations_[i].resize(shapes[i]);
  }
  if (n > 0 && activations_[n - 1].is_view()) activations_[n - 1].unbind();

  planned_bytes_ = arena_floats * sizeof(float) +
                   (n > 0 ? shapes[n - 1].count() * sizeof(float) : 0);
  auto& m = obs::metrics();
  m.gauge("nn.plan.peak_bytes").set(static_cast<double>(planned_bytes_));
  m.gauge("nn.plan.naive_bytes").set(static_cast<double>(naive_bytes_));
  m.gauge("nn.plan.buffers").set(static_cast<double>(n));
}

const Tensor& Network::forward(const Tensor& input) {
  check(!layers_.empty(), "network has no layers");
  const bool planned = memory_planning_ && !training_;
  if (planned) {
    plan_activations(input.shape());
    // Planned forwards stream through the arena: the input is read in
    // place (no defensive copy) and no history survives for backward.
    const Tensor* current = &input;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      layers_[i]->forward(*current, activations_[i]);
      current = &activations_[i];
    }
    has_forward_state_ = true;
    planned_forward_ = true;
    return activations_.back();
  }

  if (planned_forward_) {
    // Leaving planned mode: drop arena views so training forwards own
    // their activations again.
    for (auto& a : activations_) a.unbind();
    planned_forward_ = false;
  }
  input_.resize(input.shape());
  std::copy(input.data().begin(), input.data().end(),
            input_.data().begin());
  activations_.resize(layers_.size());
  const Tensor* current = &input_;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(*current, activations_[i]);
    current = &activations_[i];
  }
  has_forward_state_ = true;
  return activations_.back();
}

void Network::backward(const Tensor& grad_output) {
  check(has_forward_state_, "backward requires a preceding forward");
  check(!planned_forward_,
        "backward requires an unplanned forward: the activation planner "
        "(set_memory_planning) aliases intermediate buffers and is "
        "inference-only");
  check(grad_output.shape() == activations_.back().shape(),
        "grad_output shape mismatch");
  Tensor grad = Tensor(grad_output.shape());
  std::copy(grad_output.data().begin(), grad_output.data().end(),
            grad.data().begin());
  Tensor grad_in;
  for (std::size_t i = layers_.size(); i-- > 1;) {
    layers_[i]->backward(activations_[i - 1], grad, grad_in);
    std::swap(grad, grad_in);
  }
  // Nothing reads the network input's gradient.
  layers_[0]->backward_params(input_, grad);
}

std::vector<Tensor*> Network::parameters() {
  std::vector<Tensor*> out;
  for (const auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Network::gradients() {
  std::vector<Tensor*> out;
  for (const auto& layer : layers_) {
    for (Tensor* g : layer->gradients()) out.push_back(g);
  }
  return out;
}

void Network::zero_grad() {
  for (const auto& layer : layers_) layer->zero_grad();
}

void Network::set_training(bool training) {
  training_ = training;
  for (const auto& layer : layers_) layer->set_training(training);
}

void Network::initialize(Rng& rng) {
  for (const auto& layer : layers_) layer->initialize(rng);
}

std::size_t Network::parameter_count() {
  std::size_t count = 0;
  for (Tensor* p : parameters()) count += p->count();
  return count;
}

void Network::share_parameters(Network& owner) {
  check(&owner != this, "a network cannot share parameters with itself");
  const auto mine = parameters();
  const auto theirs = owner.parameters();
  check(mine.size() == theirs.size(),
        "share_parameters: parameter lists differ — the networks are not "
        "structurally identical");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    check(mine[i]->shape() == theirs[i]->shape(),
          "share_parameters: parameter shape mismatch");
    if (theirs[i]->count() == 0) continue;  // nothing to share
    mine[i]->bind_external(theirs[i]->raw(), theirs[i]->count());
  }
  // Alias the owner's packed weight panels too: the packs reference the
  // owner's parameter buffers, which now back this network's weights as
  // well, so one packed copy serves every sharing network.
  check(layers_.size() == owner.layers_.size(),
        "share_parameters: layer counts differ");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->adopt_prepack(*owner.layers_[i]);
  }
}

void Network::freeze_for_inference() {
  set_training(false);
  for (const auto& layer : layers_) layer->freeze_for_inference();
}

std::size_t Network::fuse_conv_relu() {
  std::size_t fused = fuse_conv_relu_pairs(layers_);
  for (const auto& layer : layers_) fused += layer->fuse_relu_pairs();
  has_forward_state_ = false;  // cached activations no longer line up
  return fused;
}

void Network::enable_autotune(bool on) {
  for (const auto& layer : layers_) layer->set_auto_tune(on);
}

Network::QuantizeReport Network::quantize(
    std::span<const Tensor> calibration,
    quant::Observer::Kind observer_kind) {
  QuantizeReport report;
  std::vector<QuantizedConvLayer*> quantized;
  for (auto& slot : layers_) {
    auto* conv = dynamic_cast<ConvLayer*>(slot.get());
    if (conv == nullptr) continue;
    auto replacement =
        std::make_unique<QuantizedConvLayer>(*conv, observer_kind);
    quantized.push_back(replacement.get());
    slot = std::move(replacement);
  }
  report.layers_quantized = quantized.size();
  if (quantized.empty()) return report;

  // Calibration forwards: quantized layers are still in observe mode,
  // so the whole pass runs fp32 and every observer sees the exact
  // activation distribution its layer will face at inference.
  const bool was_training = training_;
  set_training(false);
  for (const Tensor& batch : calibration) {
    (void)forward(batch);
    ++report.calibration_batches;
  }
  for (QuantizedConvLayer* layer : quantized) {
    layer->freeze();
    report.layers_calibrated += layer->calibrated() ? 1 : 0;
  }
  set_training(was_training);
  has_forward_state_ = false;  // calibration activations are not history
  return report;
}

}  // namespace gpucnn::nn
