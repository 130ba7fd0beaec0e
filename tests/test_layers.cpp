// Unit and finite-difference gradient tests for every nn layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/activation_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/dropout_layer.hpp"
#include "nn/fc_layer.hpp"
#include "nn/lrn_layer.hpp"
#include "nn/pool_layer.hpp"
#include "nn/softmax.hpp"

namespace gpucnn::nn {
namespace {

// L = sum(out .* weights); dL/dout = weights.
double weighted_loss(const Tensor& out, const Tensor& weights) {
  double acc = 0.0;
  for (std::size_t i = 0; i < out.count(); ++i) {
    acc += static_cast<double>(out.data()[i]) * weights.data()[i];
  }
  return acc;
}

// True when both tensors have the same shape and the same bytes.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.count() * sizeof(float)) == 0;
}

// Checks layer.backward's input gradient against central differences.
void gradcheck_input(Layer& layer, Tensor& input, double tol = 5e-3,
                     float eps = 1e-2F) {
  Rng rng(99);
  Tensor out;
  layer.forward(input, out);
  Tensor loss_w(out.shape());
  loss_w.fill_uniform(rng);

  // Re-run forward so stateful layers cache the same activation, then
  // take the analytic gradient.
  layer.forward(input, out);
  Tensor grad_in;
  layer.backward(input, loss_w, grad_in);
  ASSERT_EQ(grad_in.shape(), input.shape());

  const std::size_t probes[] = {0, input.count() / 3, input.count() - 1};
  for (const std::size_t idx : probes) {
    const float saved = input.data()[idx];
    input.data()[idx] = saved + eps;
    layer.forward(input, out);
    const double up = weighted_loss(out, loss_w);
    input.data()[idx] = saved - eps;
    layer.forward(input, out);
    const double down = weighted_loss(out, loss_w);
    input.data()[idx] = saved;
    layer.forward(input, out);  // restore cached state
    EXPECT_NEAR(grad_in.data()[idx], (up - down) / (2.0 * eps), tol)
        << "input index " << idx;
  }
}

// --- pooling ---------------------------------------------------------

TEST(PoolLayer, MaxPoolPicksWindowMax) {
  PoolLayer pool("p", 2, 2);
  Tensor in(1, 1, 2, 2);
  in(0, 0, 0, 0) = 1.0F;
  in(0, 0, 0, 1) = 5.0F;
  in(0, 0, 1, 0) = -2.0F;
  in(0, 0, 1, 1) = 0.0F;
  Tensor out;
  pool.forward(in, out);
  EXPECT_EQ(out.shape(), (TensorShape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 5.0F);
}

TEST(PoolLayer, MaxPoolBackwardRoutesToWinner) {
  PoolLayer pool("p", 2, 2);
  Tensor in(1, 1, 2, 2);
  in(0, 0, 0, 1) = 5.0F;
  Tensor out;
  pool.forward(in, out);
  Tensor gout(1, 1, 1, 1);
  gout(0, 0, 0, 0) = 3.0F;
  Tensor gin;
  pool.backward(in, gout, gin);
  EXPECT_FLOAT_EQ(gin(0, 0, 0, 1), 3.0F);
  EXPECT_FLOAT_EQ(gin(0, 0, 0, 0), 0.0F);
}

TEST(PoolLayer, MaxBackwardRoutesByItsOwnInput) {
  // Backward recomputes each winner from the input it is given: after a
  // forward on another input, or with no forward at all, it must match a
  // fresh layer's forward(b) + backward(b, g) bit for bit. Both
  // geometries have ties-free random inputs; the second pads and keeps a
  // ceil-mode trailing window.
  struct Case {
    std::size_t window, stride, pad;
  };
  for (const Case pc : {Case{2, 2, 0}, Case{3, 2, 1}}) {
    Rng rng(21);
    Tensor a(2, 3, 9, 9);
    Tensor b(a.shape());
    a.fill_uniform(rng);
    b.fill_uniform(rng);
    PoolLayer fresh("p", pc.window, pc.stride, PoolMode::kMax, pc.pad);
    Tensor gout(fresh.output_shape(b.shape()));
    gout.fill_uniform(rng);
    Tensor out;
    Tensor want;
    fresh.forward(b, out);
    fresh.backward(b, gout, want);

    PoolLayer after_a("p", pc.window, pc.stride, PoolMode::kMax, pc.pad);
    after_a.forward(a, out);
    Tensor got;
    after_a.backward(b, gout, got);
    EXPECT_TRUE(same_bits(got, want)) << "after forward(a), window "
                                      << pc.window;

    PoolLayer cold("p", pc.window, pc.stride, PoolMode::kMax, pc.pad);
    Tensor got_cold;
    cold.backward(b, gout, got_cold);
    EXPECT_TRUE(same_bits(got_cold, want)) << "no forward, window "
                                           << pc.window;
  }
}

TEST(PoolLayer, MaxBackwardAtALargerBatchThanTheLastForward) {
  // A forward at batch 1, then a backward at batch 8: every window of the
  // larger input routes by its own winner (and stays in bounds).
  Rng rng(22);
  Tensor small(1, 4, 8, 8);
  Tensor big(8, 4, 8, 8);
  small.fill_uniform(rng);
  big.fill_uniform(rng);
  PoolLayer fresh("p", 2, 2);
  Tensor gout(fresh.output_shape(big.shape()));
  gout.fill_uniform(rng);
  Tensor out;
  Tensor want;
  fresh.forward(big, out);
  fresh.backward(big, gout, want);

  PoolLayer used("p", 2, 2);
  used.forward(small, out);
  Tensor got;
  used.backward(big, gout, got);
  EXPECT_TRUE(same_bits(got, want));
}

TEST(PoolLayer, AveragePoolValue) {
  PoolLayer pool("p", 2, 2, PoolMode::kAverage);
  Tensor in(1, 1, 2, 2);
  in(0, 0, 0, 0) = 1.0F;
  in(0, 0, 0, 1) = 2.0F;
  in(0, 0, 1, 0) = 3.0F;
  in(0, 0, 1, 1) = 4.0F;
  Tensor out;
  pool.forward(in, out);
  EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 2.5F);
}

TEST(PoolLayer, CeilModeKeepsTrailingColumn) {
  // AlexNet geometry: 13 -> 6 with window 3 stride 2 (exact division),
  // and ceil mode keeps the partial trailing window: 7 -> 4 with
  // window 2 stride 2 (floor mode would give 3).
  PoolLayer pool3("p3", 3, 2);
  EXPECT_EQ(pool3.output_shape({1, 1, 13, 13}),
            (TensorShape{1, 1, 6, 6}));
  PoolLayer pool2("p2", 2, 2);
  EXPECT_EQ(pool2.output_shape({1, 1, 7, 7}), (TensorShape{1, 1, 4, 4}));
}

TEST(PoolLayer, AverageGradcheck) {
  PoolLayer pool("p", 3, 2, PoolMode::kAverage);
  Rng rng(1);
  Tensor in(2, 3, 7, 7);
  in.fill_uniform(rng);
  gradcheck_input(pool, in);
}

TEST(PoolLayer, MaxGradcheck) {
  PoolLayer pool("p", 2, 2);
  Rng rng(2);
  Tensor in(2, 2, 6, 6);
  in.fill_uniform(rng);
  gradcheck_input(pool, in);
}

// --- activations -----------------------------------------------------

TEST(ActivationLayer, ReluClampsNegatives) {
  ActivationLayer relu("r");
  Tensor in(1, 1, 1, 4);
  in(0, 0, 0, 0) = -1.0F;
  in(0, 0, 0, 1) = 2.0F;
  in(0, 0, 0, 2) = 0.0F;
  in(0, 0, 0, 3) = -0.5F;
  Tensor out;
  relu.forward(in, out);
  EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 0.0F);
  EXPECT_FLOAT_EQ(out(0, 0, 0, 1), 2.0F);
}

TEST(ActivationLayer, SigmoidRange) {
  ActivationLayer sig("s", Activation::kSigmoid);
  Rng rng(3);
  Tensor in(1, 2, 4, 4);
  in.fill_uniform(rng, -5.0F, 5.0F);
  Tensor out;
  sig.forward(in, out);
  for (const float v : out.data()) {
    EXPECT_GT(v, 0.0F);
    EXPECT_LT(v, 1.0F);
  }
}

TEST(ActivationLayer, GradchecksAllFunctions) {
  for (const auto fn :
       {Activation::kRelu, Activation::kSigmoid, Activation::kTanh}) {
    ActivationLayer layer("a", fn);
    Rng rng(4);
    Tensor in(2, 2, 3, 3);
    // Keep away from ReLU's kink.
    in.fill_uniform(rng, 0.1F, 1.0F);
    gradcheck_input(layer, in, 1e-2);
  }
}

// --- fully connected -------------------------------------------------

TEST(FcLayer, ForwardIsAffineMap) {
  FcLayer fc("fc", 3, 2);
  // W = [[1,0,0],[0,2,0]], b = [1, -1].
  fc.parameters()[0]->data()[0] = 1.0F;
  fc.parameters()[0]->data()[4] = 2.0F;
  fc.parameters()[1]->data()[0] = 1.0F;
  fc.parameters()[1]->data()[1] = -1.0F;
  Tensor in(1, 3, 1, 1);
  in(0, 0, 0, 0) = 10.0F;
  in(0, 1, 0, 0) = 20.0F;
  Tensor out;
  fc.forward(in, out);
  EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 11.0F);
  EXPECT_FLOAT_EQ(out(0, 1, 0, 0), 39.0F);
}

TEST(FcLayer, FlattensSpatialInput) {
  FcLayer fc("fc", 2 * 3 * 3, 4);
  Rng rng(5);
  fc.initialize(rng);
  Tensor in(2, 2, 3, 3);
  in.fill_uniform(rng);
  Tensor out;
  fc.forward(in, out);
  EXPECT_EQ(out.shape(), (TensorShape{2, 4, 1, 1}));
}

TEST(FcLayer, RejectsFeatureMismatch) {
  FcLayer fc("fc", 10, 4);
  EXPECT_THROW((void)fc.output_shape({1, 3, 2, 2}), Error);
}

TEST(FcLayer, InputGradcheck) {
  FcLayer fc("fc", 12, 5);
  Rng rng(6);
  fc.initialize(rng);
  Tensor in(3, 12, 1, 1);
  in.fill_uniform(rng);
  gradcheck_input(fc, in);
}

TEST(FcLayer, WeightGradcheck) {
  FcLayer fc("fc", 6, 4);
  Rng rng(7);
  fc.initialize(rng);
  Tensor in(2, 6, 1, 1);
  in.fill_uniform(rng);
  Tensor out;
  fc.forward(in, out);
  Tensor loss_w(out.shape());
  loss_w.fill_uniform(rng);
  fc.zero_grad();
  Tensor gin;
  fc.backward(in, loss_w, gin);
  Tensor* w = fc.parameters()[0];
  Tensor* gw = fc.gradients()[0];
  const float eps = 1e-2F;
  for (const std::size_t idx : {0UL, 11UL, w->count() - 1}) {
    const float saved = w->data()[idx];
    w->data()[idx] = saved + eps;
    fc.forward(in, out);
    const double up = weighted_loss(out, loss_w);
    w->data()[idx] = saved - eps;
    fc.forward(in, out);
    const double down = weighted_loss(out, loss_w);
    w->data()[idx] = saved;
    EXPECT_NEAR(gw->data()[idx], (up - down) / (2.0 * eps), 5e-3);
  }
}

// --- dropout ---------------------------------------------------------

TEST(DropoutLayer, IdentityAtInference) {
  DropoutLayer drop("d", 0.5);
  drop.set_training(false);
  Rng rng(8);
  Tensor in(1, 4, 4, 4);
  in.fill_uniform(rng);
  Tensor out;
  drop.forward(in, out);
  EXPECT_EQ(max_abs_diff(in, out), 0.0);
}

TEST(DropoutLayer, PreservesExpectationInTraining) {
  DropoutLayer drop("d", 0.5);
  Tensor in(1, 1, 100, 100);
  in.fill(1.0F);
  Tensor out;
  drop.forward(in, out);
  EXPECT_NEAR(out.sum() / static_cast<double>(out.count()), 1.0, 0.1);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  DropoutLayer drop("d", 0.5);
  Tensor in(1, 1, 8, 8);
  in.fill(1.0F);
  Tensor out;
  drop.forward(in, out);
  Tensor gout(in.shape());
  gout.fill(1.0F);
  Tensor gin;
  drop.backward(in, gout, gin);
  EXPECT_EQ(max_abs_diff(out, gin), 0.0);  // same mask, same scaling
}

TEST(DropoutLayer, RejectsInvalidRate) {
  EXPECT_THROW(DropoutLayer("d", 1.0), Error);
  EXPECT_THROW(DropoutLayer("d", -0.1), Error);
}

// --- LRN -------------------------------------------------------------

TEST(LrnLayer, NormalisesByWindowEnergy) {
  LrnLayer lrn("l", 5, 1e-4, 0.75, 2.0);
  Tensor in(1, 8, 2, 2);
  in.fill(1.0F);
  Tensor out;
  lrn.forward(in, out);
  // Interior channels see 5 ones: b = 2 + 1e-4; out ~ 1 * b^-0.75.
  const float expect =
      static_cast<float>(std::pow(2.0 + 5.0 * 1e-4 / 5.0 * 5.0, -0.75));
  EXPECT_NEAR(out(0, 4, 0, 0), expect, 1e-3F);
}

TEST(LrnLayer, Gradcheck) {
  LrnLayer lrn("l", 3);
  Rng rng(9);
  Tensor in(2, 6, 3, 3);
  in.fill_uniform(rng, 0.2F, 1.0F);
  gradcheck_input(lrn, in, 1e-2);
}

TEST(LrnLayer, MatchesFp64ReferenceOnEveryElement) {
  // An independent double-precision evaluation, element by element:
  //   b(c)   = k + alpha/size * sum_{|c'-c| <= size/2} in(c')^2
  //   out(c) = in(c) * b(c)^-beta
  //   gin(c) = gout(c) * b(c)^-beta - 2 beta alpha/size * in(c)
  //            * sum_{|c'-c| <= size/2} gout(c') in(c') b(c')^(-beta-1)
  // alpha = 1 keeps the window term far above the tolerance, the clipped
  // windows of the edge channels included. The two gin terms can cancel,
  // so its error is relative to their magnitudes.
  struct Case {
    std::size_t n, c, h, w, size;
    double beta, k;
  };
  constexpr Case kCases[] = {{1, 13, 5, 7, 5, 0.75, 2.0},
                             {3, 8, 3, 5, 3, 0.6, 1.0},
                             {1, 8, 7, 3, 5, 0.6, 1.0},
                             {3, 13, 3, 3, 3, 0.75, 2.0},
                             {1, 64, 9, 11, 5, 0.75, 2.0},
                             {1, 96, 7, 5, 3, 0.6, 1.0}};
  constexpr double kAlpha = 1.0;
  constexpr double kRelTol = 1e-6;
  for (const Case& tc : kCases) {
    LrnLayer lrn("l", tc.size, kAlpha, tc.beta, tc.k);
    Rng rng(tc.c * 100 + tc.size);
    Tensor in(tc.n, tc.c, tc.h, tc.w);
    in.fill_uniform(rng);
    Tensor gout(in.shape());
    gout.fill_uniform(rng);
    Tensor out;
    lrn.forward(in, out);
    Tensor gin;
    lrn.backward(in, gout, gin);
    ASSERT_EQ(out.shape(), in.shape());
    ASSERT_EQ(gin.shape(), in.shape());

    const double norm = kAlpha / static_cast<double>(tc.size);
    const std::size_t half = tc.size / 2;
    const auto lo = [&](std::size_t c) { return c >= half ? c - half : 0; };
    const auto hi = [&](std::size_t c) {
      return std::min(c + half, tc.c - 1);
    };
    std::vector<double> b(tc.c);
    for (std::size_t n = 0; n < tc.n; ++n) {
      for (std::size_t y = 0; y < tc.h; ++y) {
        for (std::size_t x = 0; x < tc.w; ++x) {
          for (std::size_t c = 0; c < tc.c; ++c) {
            double sum_sq = 0.0;
            for (std::size_t j = lo(c); j <= hi(c); ++j) {
              const double v = in(n, j, y, x);
              sum_sq += v * v;
            }
            b[c] = tc.k + norm * sum_sq;
          }
          for (std::size_t c = 0; c < tc.c; ++c) {
            double cross = 0.0;
            for (std::size_t j = lo(c); j <= hi(c); ++j) {
              cross += static_cast<double>(gout(n, j, y, x)) * in(n, j, y, x) *
                       std::pow(b[j], -tc.beta - 1.0);
            }
            const double want_out = in(n, c, y, x) * std::pow(b[c], -tc.beta);
            const double direct = gout(n, c, y, x) * std::pow(b[c], -tc.beta);
            const double coupled =
                2.0 * tc.beta * norm * in(n, c, y, x) * cross;
            EXPECT_LE(std::abs(out(n, c, y, x) - want_out),
                      kRelTol * std::abs(want_out))
                << "out C=" << tc.c << " at (" << n << "," << c << "," << y
                << "," << x << ")";
            EXPECT_LE(std::abs(gin(n, c, y, x) - (direct - coupled)),
                      kRelTol * (std::abs(direct) + std::abs(coupled)))
                << "gin C=" << tc.c << " at (" << n << "," << c << "," << y
                << "," << x << ")";
          }
        }
      }
    }
  }
}

TEST(LrnLayer, KeepsNoStateBetweenPasses) {
  // alpha = 1 makes b depend strongly on the input, so a backward that
  // read another input's b would differ.
  const auto make = [] { return LrnLayer("l", 5, 1.0, 0.75, 2.0); };
  Rng rng(31);
  Tensor a(2, 24, 5, 7);
  Tensor b(a.shape());
  Tensor gout(a.shape());
  a.fill_uniform(rng);
  b.fill_uniform(rng);
  gout.fill_uniform(rng);

  LrnLayer train = make();
  LrnLayer infer = make();
  infer.set_training(false);
  Tensor out_train;
  Tensor out_infer;
  train.forward(b, out_train);
  infer.forward(b, out_infer);
  EXPECT_TRUE(same_bits(out_train, out_infer))
      << "training and inference forwards differ";

  Tensor want;
  train.backward(b, gout, want);

  LrnLayer cold = make();
  Tensor got_cold;
  cold.backward(b, gout, got_cold);
  EXPECT_TRUE(same_bits(got_cold, want)) << "backward with no forward";

  LrnLayer after_a = make();
  Tensor out;
  after_a.forward(a, out);
  Tensor got;
  after_a.backward(b, gout, got);
  EXPECT_TRUE(same_bits(got, want)) << "backward(b) after forward(a)";
}

TEST(LrnLayer, RejectsEvenWindow) { EXPECT_THROW(LrnLayer("l", 4), Error); }

// --- softmax ---------------------------------------------------------

TEST(SoftmaxLayer, RowsSumToOne) {
  SoftmaxLayer sm("s");
  Rng rng(10);
  Tensor in(4, 10, 1, 1);
  in.fill_uniform(rng, -3.0F, 3.0F);
  Tensor out;
  sm.forward(in, out);
  for (std::size_t n = 0; n < 4; ++n) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 10; ++c) sum += out(n, c, 0, 0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxLayer, StableForLargeLogits) {
  SoftmaxLayer sm("s");
  Tensor in(1, 3, 1, 1);
  in(0, 0, 0, 0) = 1000.0F;
  in(0, 1, 0, 0) = 1000.0F;
  in(0, 2, 0, 0) = -1000.0F;
  Tensor out;
  sm.forward(in, out);
  EXPECT_NEAR(out(0, 0, 0, 0), 0.5F, 1e-5F);
  EXPECT_NEAR(out(0, 2, 0, 0), 0.0F, 1e-6F);
}

TEST(SoftmaxLayer, Gradcheck) {
  SoftmaxLayer sm("s");
  Rng rng(11);
  Tensor in(2, 5, 1, 1);
  in.fill_uniform(rng);
  gradcheck_input(sm, in, 1e-2);
}

TEST(SoftmaxLoss, UniformPredictionGivesLogC) {
  Tensor probs(3, 4, 1, 1);
  probs.fill(0.25F);
  const std::vector<std::size_t> labels{0, 1, 2};
  EXPECT_NEAR(cross_entropy_loss(probs, labels), std::log(4.0), 1e-5);
}

TEST(SoftmaxLoss, LogitsGradIsProbMinusOneHotOverBatch) {
  Tensor probs(2, 3, 1, 1);
  probs.fill(1.0F / 3.0F);
  const std::vector<std::size_t> labels{0, 2};
  Tensor grad;
  cross_entropy_grad(probs, labels, grad);
  EXPECT_NEAR(grad(0, 0, 0, 0), (1.0F / 3.0F - 1.0F) / 2.0F, 1e-6F);
  EXPECT_NEAR(grad(0, 1, 0, 0), (1.0F / 3.0F) / 2.0F, 1e-6F);
}

TEST(SoftmaxLoss, ProbGradThroughSoftmaxEqualsLogitsGrad) {
  // Feeding the probability-space gradient through SoftmaxLayer's
  // backward must reproduce (p - onehot)/N at the logits — the identity
  // network training relies on.
  SoftmaxLayer sm("s");
  Rng rng(20);
  Tensor logits(3, 4, 1, 1);
  logits.fill_uniform(rng, -2.0F, 2.0F);
  Tensor probs;
  sm.forward(logits, probs);
  const std::vector<std::size_t> labels{1, 3, 0};

  Tensor prob_grad;
  cross_entropy_prob_grad(probs, labels, prob_grad);
  Tensor through_softmax;
  sm.backward(logits, prob_grad, through_softmax);

  Tensor direct;
  cross_entropy_grad(probs, labels, direct);
  EXPECT_LT(max_abs_diff(through_softmax, direct), 1e-5);
}

TEST(SoftmaxLoss, AccuracyCountsArgmaxHits) {
  Tensor probs(2, 2, 1, 1);
  probs(0, 0, 0, 0) = 0.9F;
  probs(0, 1, 0, 0) = 0.1F;
  probs(1, 0, 0, 0) = 0.2F;
  probs(1, 1, 0, 0) = 0.8F;
  EXPECT_DOUBLE_EQ(accuracy(probs, std::vector<std::size_t>{0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(accuracy(probs, std::vector<std::size_t>{0, 1}), 1.0);
}

TEST(SoftmaxLoss, RejectsBadLabels) {
  Tensor probs(1, 3, 1, 1);
  probs.fill(1.0F / 3.0F);
  EXPECT_THROW((void)cross_entropy_loss(probs, std::vector<std::size_t>{5}),
               Error);
}

// --- conv layer (integration with engines) ---------------------------

TEST(ConvLayer, InputGradcheck) {
  ConvLayer layer("c",
                  ConvConfig{.batch = 1, .input = 6, .channels = 2,
                             .filters = 3, .kernel = 3, .stride = 1,
                             .pad = 1});
  Rng rng(12);
  layer.initialize(rng);
  Tensor in(2, 2, 6, 6);
  in.fill_uniform(rng);
  gradcheck_input(layer, in);
}

TEST(ConvLayer, AdaptsToBatchSize) {
  ConvLayer layer("c",
                  ConvConfig{.batch = 1, .input = 5, .channels = 1,
                             .filters = 2, .kernel = 3, .stride = 1});
  Rng rng(13);
  layer.initialize(rng);
  for (const std::size_t n : {1UL, 3UL, 8UL}) {
    Tensor in(n, 1, 5, 5);
    in.fill_uniform(rng);
    Tensor out;
    layer.forward(in, out);
    EXPECT_EQ(out.shape().n, n);
  }
}

TEST(ConvLayer, BiasIsAdded) {
  ConvLayer layer("c",
                  ConvConfig{.batch = 1, .input = 3, .channels = 1,
                             .filters = 1, .kernel = 3, .stride = 1});
  layer.parameters()[1]->fill(7.0F);  // bias only; weights zero
  Tensor in(1, 1, 3, 3);
  in.fill(1.0F);
  Tensor out;
  layer.forward(in, out);
  EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 7.0F);
}

TEST(ConvLayer, StrategySwapPreservesOutput) {
  ConvLayer layer("c",
                  ConvConfig{.batch = 1, .input = 9, .channels = 2,
                             .filters = 4, .kernel = 3, .stride = 1});
  Rng rng(14);
  layer.initialize(rng);
  Tensor in(2, 2, 9, 9);
  in.fill_uniform(rng);
  Tensor unroll;
  layer.forward(in, unroll);
  layer.set_strategy(conv::Strategy::kFft);
  Tensor fft;
  layer.forward(in, fft);
  EXPECT_LT(max_abs_diff(unroll, fft), 1e-4);
}

}  // namespace
}  // namespace gpucnn::nn
