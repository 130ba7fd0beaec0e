// Fully connected layer (the FC layers of Fig. 2's breakdown). Input of
// any 4-D shape is treated as (batch, features).
#pragma once

#include <memory>

#include "blas/packed.hpp"
#include "nn/layer.hpp"

namespace gpucnn::nn {

class FcLayer final : public Layer {
 public:
  FcLayer(std::string name, std::size_t in_features,
          std::size_t out_features);

  [[nodiscard]] std::string_view type() const override { return "fc"; }
  [[nodiscard]] TensorShape output_shape(const TensorShape& in)
      const override;

  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;

  [[nodiscard]] std::vector<Tensor*> parameters() override {
    return {&weights_, &bias_};
  }
  [[nodiscard]] std::vector<Tensor*> gradients() override {
    return {&grad_weights_, &grad_bias_};
  }

  void initialize(Rng& rng) override;

  /// Packs W^T (the forward GEMM's B operand, nr-column panels) once;
  /// inference forwards then skip the per-call B pack entirely — on
  /// small batches the FC GEMM is pack-dominated, so this is the biggest
  /// single win of the packed-weight cache.
  void freeze_for_inference() override;

  void set_training(bool training) override {
    if (training) prepacked_.reset();
    Layer::set_training(training);
  }

  void adopt_prepack(const Layer& owner) override;
  void drop_prepack() override { prepacked_.reset(); }

  [[nodiscard]] std::shared_ptr<const blas::PackedMatrix> prepacked()
      const {
    return prepacked_;
  }

  [[nodiscard]] std::size_t in_features() const { return in_features_; }
  [[nodiscard]] std::size_t out_features() const { return out_features_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Tensor weights_;       ///< (out, in) row-major
  Tensor bias_;          ///< (out)
  Tensor grad_weights_;
  Tensor grad_bias_;
  /// W packed as the forward GEMM's B operand (see freeze_for_inference).
  std::shared_ptr<const blas::PackedMatrix> prepacked_;
};

}  // namespace gpucnn::nn
