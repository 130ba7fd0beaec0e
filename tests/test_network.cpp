// Network container, optimiser and end-to-end training tests.
#include <gtest/gtest.h>

#include <cstring>

#include "conv/conv_engine.hpp"
#include "nn/activation_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/fc_layer.hpp"
#include "nn/inception_layer.hpp"
#include "nn/network.hpp"
#include "nn/pool_layer.hpp"
#include "nn/sgd.hpp"
#include "nn/softmax.hpp"
#include "nn/synthetic_data.hpp"
#include "tune/autotuner.hpp"

namespace gpucnn::nn {
namespace {

Network tiny_net(conv::Strategy strategy = conv::Strategy::kUnrolling) {
  Network net;
  net.emplace<ConvLayer>("conv",
                         ConvConfig{.batch = 1, .input = 8, .channels = 1,
                                    .filters = 4, .kernel = 3, .stride = 1,
                                    .pad = 1},
                         strategy);
  net.emplace<ActivationLayer>("relu");
  net.emplace<PoolLayer>("pool", 2, 2);
  net.emplace<FcLayer>("fc", 4 * 4 * 4, 3);
  net.emplace<SoftmaxLayer>("prob");
  return net;
}

TEST(Network, OutputShapePropagates) {
  auto net = tiny_net();
  EXPECT_EQ(net.output_shape({5, 1, 8, 8}), (TensorShape{5, 3, 1, 1}));
}

TEST(Network, ForwardProducesProbabilities) {
  auto net = tiny_net();
  Rng rng(1);
  net.initialize(rng);
  Tensor in(2, 1, 8, 8);
  in.fill_uniform(rng);
  const Tensor& out = net.forward(in);
  for (std::size_t n = 0; n < 2; ++n) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) sum += out(n, c, 0, 0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Network, BackwardRequiresForward) {
  auto net = tiny_net();
  Tensor grad(2, 3, 1, 1);
  EXPECT_THROW(net.backward(grad), Error);
}

TEST(Network, ParametersAndGradientsAligned) {
  auto net = tiny_net();
  EXPECT_EQ(net.parameters().size(), net.gradients().size());
  EXPECT_EQ(net.parameters().size(), 4U);  // conv W/b + fc W/b
  for (std::size_t i = 0; i < net.parameters().size(); ++i) {
    EXPECT_EQ(net.parameters()[i]->shape(), net.gradients()[i]->shape());
  }
}

TEST(Network, ZeroGradClearsGradients) {
  auto net = tiny_net();
  Rng rng(2);
  net.initialize(rng);
  Tensor in(2, 1, 8, 8);
  in.fill_uniform(rng);
  const Tensor& probs = net.forward(in);
  // A uniform output gradient would vanish through softmax (it is
  // orthogonal to the probability simplex); use a real loss gradient.
  Tensor grad;
  cross_entropy_prob_grad(probs, std::vector<std::size_t>{0, 1}, grad);
  net.backward(grad);
  bool any_nonzero = false;
  for (Tensor* g : net.gradients()) any_nonzero |= g->max_abs() > 0.0F;
  EXPECT_TRUE(any_nonzero);
  net.zero_grad();
  for (Tensor* g : net.gradients()) EXPECT_EQ(g->max_abs(), 0.0F);
}

TEST(Network, EndToEndGradcheckThroughWholeStack) {
  auto net = tiny_net();
  Rng rng(3);
  net.initialize(rng);
  Tensor in(2, 1, 8, 8);
  in.fill_uniform(rng);
  const std::vector<std::size_t> labels{0, 2};

  net.zero_grad();
  const Tensor& probs = net.forward(in);
  Tensor grad;
  cross_entropy_prob_grad(probs, labels, grad);
  net.backward(grad);

  // Finite differences on a few parameters of each tensor.
  const auto params = net.parameters();
  const auto grads = net.gradients();
  const float eps = 1e-2F;
  for (std::size_t t = 0; t < params.size(); ++t) {
    for (const std::size_t idx : {0UL, params[t]->count() / 2}) {
      const float saved = params[t]->data()[idx];
      params[t]->data()[idx] = saved + eps;
      const double up =
          cross_entropy_loss(net.forward(in), labels);
      params[t]->data()[idx] = saved - eps;
      const double down =
          cross_entropy_loss(net.forward(in), labels);
      params[t]->data()[idx] = saved;
      EXPECT_NEAR(grads[t]->data()[idx], (up - down) / (2.0 * eps), 2e-2)
          << "tensor " << t << " index " << idx;
    }
  }
}

// Network::backward asks the first layer for its parameter gradients
// only: nothing reads the gradient of the network's input.
TEST(Network, FirstLayerSkipsTheInputGradient) {
  auto& tuner = tune::Autotuner::instance();
  const tune::Mode mode_before = tuner.mode();
  tuner.set_mode(tune::Mode::kHeuristic);
  tuner.clear();

  auto net = tiny_net();
  auto ref = tiny_net();
  Rng r1(11);
  net.initialize(r1);
  Rng r2(11);
  ref.initialize(r2);
  for (Network* n : {&net, &ref}) {
    n->fuse_conv_relu();  // the fused backward masks the gradient first
    n->enable_autotune(true);
  }
  Rng rng(12);
  Tensor in(2, 1, 8, 8);
  in.fill_uniform(rng);
  const std::vector<std::size_t> labels{1, 2};

  Tensor grad;
  cross_entropy_prob_grad(net.forward(in), labels, grad);
  net.backward(grad);
  // The conv layer asks the tuner for an engine exactly when it runs a
  // pass, so the memo shows which of its passes ran.
  const ConvConfig cfg{.batch = 2, .input = 8, .channels = 1, .filters = 4,
                       .kernel = 3, .stride = 1, .pad = 1};
  bool filter_pass = false;
  bool data_pass = false;
  for (const auto& e : tuner.entries()) {
    if (e.config != cfg) continue;
    filter_pass |= e.pass == tune::Pass::kBackwardFilter;
    data_pass |= e.pass == tune::Pass::kBackwardData;
  }
  EXPECT_TRUE(filter_pass);
  EXPECT_FALSE(data_pass) << "layer 0 ran its backward-data engine";

  // Reference: the same step layer by layer, layer 0's full backward
  // included.
  std::vector<Tensor> acts(ref.size());
  const Tensor* current = &in;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref.layer(i).forward(*current, acts[i]);
    current = &acts[i];
  }
  Tensor ref_grad;
  cross_entropy_prob_grad(acts.back(), labels, ref_grad);
  Tensor grad_in;
  for (std::size_t i = ref.size(); i-- > 0;) {
    ref.layer(i).backward(i == 0 ? in : acts[i - 1], ref_grad, grad_in);
    std::swap(ref_grad, grad_in);
  }
  const auto got = net.gradients();
  const auto want = ref.gradients();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i]->count(), want[i]->count());
    EXPECT_EQ(std::memcmp(got[i]->data().data(), want[i]->data().data(),
                          got[i]->count() * sizeof(float)),
              0)
        << "gradient " << i << " differs in its bits";
  }
  tuner.clear();
  tuner.set_mode(mode_before);
}

TEST(Sgd, MovesAgainstGradient) {
  Network net;
  net.emplace<FcLayer>("fc", 2, 1);
  auto& fc = dynamic_cast<FcLayer&>(net.layer(0));
  fc.parameters()[0]->fill(1.0F);
  fc.gradients()[0]->fill(0.5F);
  Sgd sgd(net, {.learning_rate = 0.1, .momentum = 0.0});
  sgd.step();
  EXPECT_FLOAT_EQ(fc.parameters()[0]->data()[0], 1.0F - 0.05F);
}

TEST(Sgd, MomentumAccumulates) {
  Network net;
  net.emplace<FcLayer>("fc", 1, 1);
  auto& fc = dynamic_cast<FcLayer&>(net.layer(0));
  fc.parameters()[0]->fill(0.0F);
  Sgd sgd(net, {.learning_rate = 1.0, .momentum = 0.5});
  fc.gradients()[0]->fill(1.0F);
  sgd.step();  // v = 1, p = -1
  sgd.step();  // v = 1.5, p = -2.5
  EXPECT_FLOAT_EQ(fc.parameters()[0]->data()[0], -2.5F);
}

TEST(Sgd, WeightDecayShrinksParameters) {
  Network net;
  net.emplace<FcLayer>("fc", 1, 1);
  auto& fc = dynamic_cast<FcLayer&>(net.layer(0));
  fc.parameters()[0]->fill(10.0F);
  fc.gradients()[0]->fill(0.0F);
  Sgd sgd(net, {.learning_rate = 0.1, .momentum = 0.0,
                .weight_decay = 0.1});
  sgd.step();
  EXPECT_LT(fc.parameters()[0]->data()[0], 10.0F);
}

class TrainingConvergence
    : public ::testing::TestWithParam<conv::Strategy> {};

TEST_P(TrainingConvergence, LossDropsOnSyntheticTask) {
  // The same training run must converge under every convolution
  // strategy — the paper's interchangeability premise.
  auto net = tiny_net(GetParam());
  Rng rng(4);
  net.initialize(rng);
  SyntheticDataset data(3, 1, 8, 0.3);
  Sgd sgd(net, {.learning_rate = 0.05, .momentum = 0.9});

  double first_loss = 0.0;
  double last_loss = 0.0;
  Tensor grad;
  for (int step = 0; step < 60; ++step) {
    const auto batch = data.sample(16);
    net.zero_grad();
    const Tensor& probs = net.forward(batch.images);
    const double loss = cross_entropy_loss(probs, batch.labels);
    if (step == 0) first_loss = loss;
    last_loss = loss;
    cross_entropy_prob_grad(probs, batch.labels, grad);
    net.backward(grad);
    sgd.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

// --- conv+ReLU fusion -------------------------------------------------

TEST(NetworkFusion, FuseConvReluMatchesUnfusedBitForBit) {
  auto fused_net = tiny_net();
  auto plain_net = tiny_net();
  Rng r1(7);
  fused_net.initialize(r1);
  Rng r2(7);
  plain_net.initialize(r2);

  EXPECT_EQ(fused_net.fuse_conv_relu(), 1U);
  EXPECT_EQ(fused_net.size(), plain_net.size() - 1);

  Rng rng(9);
  Tensor in(2, 1, 8, 8);
  in.fill_uniform(rng);
  const Tensor& fused_out = fused_net.forward(in);
  const Tensor& plain_out = plain_net.forward(in);
  EXPECT_EQ(max_abs_diff(fused_out, plain_out), 0.0);

  // Gradients of every parameter must also match bit for bit.
  Tensor grad(fused_out.shape());
  grad.fill_uniform(rng);
  fused_net.zero_grad();
  plain_net.zero_grad();
  fused_net.backward(grad);
  plain_net.backward(grad);
  const auto fg = fused_net.gradients();
  const auto pg = plain_net.gradients();
  ASSERT_EQ(fg.size(), pg.size());
  for (std::size_t i = 0; i < fg.size(); ++i) {
    EXPECT_EQ(max_abs_diff(*fg[i], *pg[i]), 0.0) << "gradient " << i;
  }
}

TEST(NetworkFusion, OnlyReluPairsFuse) {
  Network net;
  net.emplace<ConvLayer>("conv",
                         ConvConfig{.batch = 1, .input = 6, .channels = 1,
                                    .filters = 2, .kernel = 3, .stride = 1,
                                    .pad = 1});
  net.emplace<ActivationLayer>("tanh", Activation::kTanh);
  EXPECT_EQ(net.fuse_conv_relu(), 0U);
  EXPECT_EQ(net.size(), 2U);
}

// --- activation memory planner ----------------------------------------

TEST(NetworkPlanner, PlannedInferenceMatchesUnplanned) {
  auto planned = tiny_net();
  auto plain = tiny_net();
  Rng r1(11);
  planned.initialize(r1);
  Rng r2(11);
  plain.initialize(r2);
  planned.set_training(false);
  plain.set_training(false);
  planned.set_memory_planning(true);

  Rng rng(13);
  Tensor in(3, 1, 8, 8);
  in.fill_uniform(rng);
  const Tensor& a = planned.forward(in);
  const Tensor& b = plain.forward(in);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);

  // The plan must beat the naive sum-of-activations footprint, and the
  // stats must be populated.
  EXPECT_GT(planned.naive_activation_bytes(), 0U);
  EXPECT_LT(planned.planned_activation_bytes(),
            planned.naive_activation_bytes());
}

TEST(NetworkPlanner, AdjacentActivationsNeverAlias) {
  // Lifetimes [i, i+1] overlap for adjacent layers: layer i+1 reads
  // activation i while writing activation i+1. A planner bug aliasing
  // the two would corrupt the forward value — the bit-match above
  // guards it dynamically; here we re-run with a second batch size to
  // force a re-plan and check the output is still consistent.
  auto planned = tiny_net();
  Rng r1(17);
  planned.initialize(r1);
  planned.set_training(false);
  planned.set_memory_planning(true);

  auto plain = tiny_net();
  Rng r2(17);
  plain.initialize(r2);
  plain.set_training(false);

  Rng rng(19);
  for (const std::size_t batch : {1U, 4U, 2U}) {
    Tensor in(batch, 1, 8, 8);
    in.fill_uniform(rng);
    const Tensor& a = planned.forward(in);
    const Tensor& b = plain.forward(in);
    EXPECT_EQ(max_abs_diff(a, b), 0.0) << "batch " << batch;
  }
}

TEST(NetworkPlanner, PlannedForwardForbidsBackward) {
  auto net = tiny_net();
  Rng rng(23);
  net.initialize(rng);
  net.set_training(false);
  net.set_memory_planning(true);
  Tensor in(1, 1, 8, 8);
  in.fill_uniform(rng);
  const Tensor& out = net.forward(in);
  Tensor grad(out.shape());
  EXPECT_THROW(net.backward(grad), Error);

  // Returning to training mode restores the standard path.
  net.set_training(true);
  net.forward(in);
  grad.fill(0.25F);
  EXPECT_NO_THROW(net.backward(grad));
}

// --- parallel inception branches --------------------------------------

TEST(NetworkInception, ParallelBranchesMatchSerialComposition) {
  // The inception forward/backward runs its branches on the thread pool;
  // gradients and outputs must be identical to a from-scratch layer run
  // (same seed), and a gradcheck-style agreement holds between runs.
  const InceptionParams params{"t", 8, 4, 8, 2, 4, 4};
  InceptionLayer a("incept_a", 3, 6, params);
  InceptionLayer b("incept_b", 3, 6, params);
  Rng r1(29);
  a.initialize(r1);
  Rng r2(29);
  b.initialize(r2);

  Rng rng(31);
  Tensor in(2, 3, 6, 6);
  in.fill_uniform(rng);
  Tensor out_a;
  Tensor out_b;
  a.forward(in, out_a);
  b.forward(in, out_b);
  EXPECT_EQ(max_abs_diff(out_a, out_b), 0.0);

  Tensor grad(out_a.shape());
  grad.fill_uniform(rng);
  Tensor gin_a;
  Tensor gin_b;
  a.zero_grad();
  b.zero_grad();
  a.backward(in, grad, gin_a);
  b.backward(in, grad, gin_b);
  EXPECT_EQ(max_abs_diff(gin_a, gin_b), 0.0);
  const auto ga = a.gradients();
  const auto gb = b.gradients();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(max_abs_diff(*ga[i], *gb[i]), 0.0) << "gradient " << i;
  }
}

TEST(NetworkInception, InternalFusionPreservesResults) {
  const InceptionParams params{"t", 8, 4, 8, 2, 4, 4};
  InceptionLayer fused("incept_f", 3, 6, params);
  InceptionLayer plain("incept_p", 3, 6, params);
  Rng r1(37);
  fused.initialize(r1);
  Rng r2(37);
  plain.initialize(r2);
  // 6 conv -> relu pairs: 1 (1x1) + 2 (3x3 branch) + 2 (5x5) + 1 (pool).
  EXPECT_EQ(fused.fuse_relu_pairs(), 6U);

  Rng rng(41);
  Tensor in(1, 3, 6, 6);
  in.fill_uniform(rng);
  Tensor out_f;
  Tensor out_p;
  fused.forward(in, out_f);
  plain.forward(in, out_p);
  EXPECT_EQ(max_abs_diff(out_f, out_p), 0.0);

  Tensor grad(out_f.shape());
  grad.fill_uniform(rng);
  Tensor gin_f;
  Tensor gin_p;
  fused.zero_grad();
  plain.zero_grad();
  fused.backward(in, grad, gin_f);
  plain.backward(in, grad, gin_p);
  EXPECT_EQ(max_abs_diff(gin_f, gin_p), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Strategies, TrainingConvergence,
                         ::testing::Values(conv::Strategy::kDirect,
                                           conv::Strategy::kUnrolling,
                                           conv::Strategy::kFft));

}  // namespace
}  // namespace gpucnn::nn
