// Local response normalisation across channels (AlexNet's LRN).
// out(c) = in(c) * (k + alpha/size * sum_{c' in window} in(c')^2)^(-beta)
//
// Both passes run in parallel over (n, c) planes and read the window's
// contiguous H×W planes, so a batch-1 call uses every pool thread. The
// layer keeps no state between passes: backward recomputes the scale b
// from its input with forward's window helper.
#pragma once

#include "nn/layer.hpp"

namespace gpucnn::nn {

class LrnLayer final : public Layer {
 public:
  LrnLayer(std::string name, std::size_t size = 5, double alpha = 1e-4,
           double beta = 0.75, double k = 2.0)
      : Layer(std::move(name)), size_(size), alpha_(alpha), beta_(beta),
        k_(k) {
    check(size_ >= 1 && size_ % 2 == 1, "LRN window must be odd");
  }

  [[nodiscard]] std::string_view type() const override { return "lrn"; }
  [[nodiscard]] TensorShape output_shape(const TensorShape& in)
      const override {
    return in;
  }

  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;

 private:
  /// b[i] = k + alpha/size * the sum of in^2 over channel c's window, in
  /// double, for pixels [off, off + len) of sample n's planes.
  void scale(const Tensor& in, std::size_t n, std::size_t c,
             std::size_t off, std::size_t len, double* b) const;
  /// p[i] = b[i]^-beta: 1 / (sqrt(b) * sqrt(sqrt(b))) when beta = 0.75,
  /// as in every zoo LRN, else exp(-beta * log(b)).
  void neg_pow(const double* b, std::size_t len, double* p) const;

  std::size_t size_;
  double alpha_;
  double beta_;
  double k_;
};

}  // namespace gpucnn::nn
