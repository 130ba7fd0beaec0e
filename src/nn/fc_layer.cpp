#include "nn/fc_layer.hpp"

#include <cmath>

#include "blas/gemm.hpp"
#include "blas/vector_ops.hpp"

namespace gpucnn::nn {

using blas::Trans;

FcLayer::FcLayer(std::string name, std::size_t in_features,
                 std::size_t out_features)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      weights_(1, 1, out_features, in_features),
      bias_(1, out_features, 1, 1),
      grad_weights_(1, 1, out_features, in_features),
      grad_bias_(1, out_features, 1, 1) {}

TensorShape FcLayer::output_shape(const TensorShape& in) const {
  check(in.c * in.h * in.w == in_features_,
        "fc: flattened input feature count mismatch");
  return {in.n, out_features_, 1, 1};
}

void FcLayer::forward(const Tensor& in, Tensor& out) {
  const TensorShape os = output_shape(in.shape());
  out.resize(os);
  const std::size_t n = in.shape().n;
  // out(N x O) = in(N x I) * W^T(I x O); at inference the pack (if any)
  // replaces W^T's per-call packing.
  blas::sgemm(Trans::kNo, Trans::kYes, n, out_features_, in_features_, 1.0F,
              in.data(), in_features_, weights_.data(), in_features_, 0.0F,
              out.data(), out_features_, {},
              training_ ? nullptr : prepacked_.get());
  blas::add_bias(out.data(), bias_.data(), n, out_features_, 1);
}

void FcLayer::freeze_for_inference() {
  // Already holding a live pack of this very buffer (packed here
  // earlier, or adopted from the weight owner): keep sharing it.
  if (prepacked_ != nullptr && prepacked_->valid() &&
      prepacked_->source() == weights_.data().data()) {
    return;
  }
  prepacked_ = std::make_shared<const blas::PackedMatrix>(
      blas::pack_b(Trans::kYes, in_features_, out_features_,
                   weights_.data(), in_features_));
}

void FcLayer::adopt_prepack(const Layer& owner) {
  const auto* fc_owner = dynamic_cast<const FcLayer*>(&owner);
  if (fc_owner != nullptr && fc_owner->prepacked_ != nullptr) {
    prepacked_ = fc_owner->prepacked_;
  }
}

void FcLayer::backward(const Tensor& in, const Tensor& grad_out,
                       Tensor& grad_in) {
  const std::size_t n = in.shape().n;
  check(grad_out.shape().n == n &&
            grad_out.count() == n * out_features_,
        "fc: grad_out shape mismatch");
  grad_in.resize(in.shape());
  // dIn(N x I) = gOut(N x O) * W(O x I)
  blas::sgemm(Trans::kNo, Trans::kNo, n, in_features_, out_features_, 1.0F,
              grad_out.data(), out_features_, weights_.data(), in_features_,
              0.0F, grad_in.data(), in_features_);
  // dW(O x I) += gOut^T(O x N) * in(N x I)
  blas::sgemm(Trans::kYes, Trans::kNo, out_features_, in_features_, n, 1.0F,
              grad_out.data(), out_features_, in.data(), in_features_, 1.0F,
              grad_weights_.data(), in_features_);
  blas::reduce_bias_grad(grad_out.data(), grad_bias_.data(), n,
                         out_features_, 1);
}

void FcLayer::initialize(Rng& rng) {
  const float bound =
      static_cast<float>(std::sqrt(6.0 / static_cast<double>(in_features_)));
  weights_.fill_uniform(rng, -bound, bound);
  bias_.fill(0.0F);
  prepacked_.reset();  // panels packed from the previous weights
}

}  // namespace gpucnn::nn
