// Lifecycle of the persistent packed-weight cache: freeze packs once
// and changes nothing numerically, training invalidates, sharing
// aliases a single packed copy, concurrent readers are safe, and a
// frozen layer holds only the pack of the engine its forward runs.
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "conv/conv_engine.hpp"
#include "nn/activation_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/fc_layer.hpp"
#include "nn/model_spec.hpp"
#include "nn/network.hpp"
#include "nn/pool_layer.hpp"
#include "obs/metrics.hpp"
#include "tune/autotuner.hpp"

namespace gpucnn::nn {
namespace {

/// Conv + FC sized so both forward GEMMs cross the blocked threshold
/// (m*n*k >= 64^3) at batch 8 — the packs are actually consumed, not
/// skipped by the small-problem naive fallback.
Network blocked_net() {
  Network net;
  net.emplace<ConvLayer>("conv",
                         ConvConfig{.batch = 1, .input = 16, .channels = 8,
                                    .filters = 16, .kernel = 3, .stride = 1,
                                    .pad = 1},
                         conv::Strategy::kUnrolling);
  net.emplace<ActivationLayer>("relu");
  net.emplace<PoolLayer>("pool", 2, 2);
  net.emplace<FcLayer>("fc", 8 * 8 * 16, 64);
  return net;
}

Tensor blocked_input(std::size_t batch, unsigned seed) {
  Rng rng(seed);
  Tensor in(batch, 8, 16, 16);
  in.fill_uniform(rng);
  return in;
}

const ConvLayer& conv_at(const Network& net, std::size_t i) {
  return dynamic_cast<const ConvLayer&>(net.layer(i));
}

const FcLayer& fc_at(const Network& net, std::size_t i) {
  return dynamic_cast<const FcLayer&>(net.layer(i));
}

/// Heuristic tuning without a cache file for one test; restores the
/// tuner's state on scope exit.
struct HeuristicTuner {
  tune::Autotuner& tuner = tune::Autotuner::instance();
  tune::Mode mode = tuner.mode();
  std::string path = tuner.set_cache_path("");

  HeuristicTuner() {
    tuner.clear();
    tuner.set_mode(tune::Mode::kHeuristic);
  }
  ~HeuristicTuner() {
    tuner.clear();
    (void)tuner.set_cache_path(path);
    tuner.set_mode(mode);
  }
};

/// A single initialised conv layer, frozen for inference.
std::unique_ptr<ConvLayer> frozen_conv(const ConvConfig& geometry,
                                       conv::Strategy strategy, bool tuned) {
  auto layer = std::make_unique<ConvLayer>("conv", geometry, strategy);
  layer->set_auto_tune(tuned);
  Rng rng(11);
  layer->initialize(rng);
  layer->set_training(false);
  layer->freeze_for_inference();
  return layer;
}

TEST(PrepackLifecycle, FreezePacksEveryGemmLayerAndKeepsForwardBitIdentical) {
  Network net = blocked_net();
  Rng rng(7);
  net.initialize(rng);
  net.set_training(false);

  const Tensor in = blocked_input(8, 21);
  const Tensor staged = net.forward(in);  // copy: forward() reuses storage

  EXPECT_EQ(conv_at(net, 0).prepacked(), nullptr);
  EXPECT_EQ(fc_at(net, 3).prepacked(), nullptr);

  net.freeze_for_inference();
  ASSERT_NE(conv_at(net, 0).prepacked(), nullptr);
  ASSERT_NE(fc_at(net, 3).prepacked(), nullptr);

  const auto& hits = obs::metrics().counter("blas.sgemm.prepack_hits");
  const std::int64_t hits_before = hits.value();
  const Tensor& frozen = net.forward(in);
  EXPECT_EQ(max_abs_diff(staged, frozen), 0.0);
  EXPECT_GT(hits.value(), hits_before)
      << "the frozen forward never consumed a cached pack — the layer "
         "shapes no longer cross the blocked-GEMM threshold";
}

TEST(PrepackLifecycle, FreezeIsIdempotentOverUnchangedWeights) {
  Network net = blocked_net();
  Rng rng(7);
  net.initialize(rng);
  net.freeze_for_inference();
  const auto conv_pack = conv_at(net, 0).prepacked();
  const auto fc_pack = fc_at(net, 3).prepacked();
  net.freeze_for_inference();
  EXPECT_EQ(conv_at(net, 0).prepacked().get(), conv_pack.get())
      << "a second freeze re-packed unchanged conv weights";
  EXPECT_EQ(fc_at(net, 3).prepacked().get(), fc_pack.get())
      << "a second freeze re-packed unchanged FC weights";
}

TEST(PrepackLifecycle, SetTrainingInvalidatesPacks) {
  Network net = blocked_net();
  Rng rng(7);
  net.initialize(rng);
  net.freeze_for_inference();
  ASSERT_NE(conv_at(net, 0).prepacked(), nullptr);
  ASSERT_NE(fc_at(net, 3).prepacked(), nullptr);

  net.set_training(true);  // weights may change: packs must not survive
  EXPECT_EQ(conv_at(net, 0).prepacked(), nullptr);
  EXPECT_EQ(fc_at(net, 3).prepacked(), nullptr);

  // Re-freezing after the round trip restores the packed path and the
  // forward stays bit-identical to the staged result.
  const Tensor in = blocked_input(8, 22);
  net.set_training(false);
  const Tensor staged = net.forward(in);
  net.freeze_for_inference();
  ASSERT_NE(conv_at(net, 0).prepacked(), nullptr);
  EXPECT_EQ(max_abs_diff(staged, net.forward(in)), 0.0);
}

TEST(PrepackLifecycle, SetStrategyDropsTheConvPack) {
  Network net = blocked_net();
  Rng rng(7);
  net.initialize(rng);
  net.freeze_for_inference();
  ASSERT_NE(conv_at(net, 0).prepacked(), nullptr);
  dynamic_cast<ConvLayer&>(net.layer(0))
      .set_strategy(conv::Strategy::kDirect);
  EXPECT_EQ(conv_at(net, 0).prepacked(), nullptr)
      << "an engine swap kept a pack laid out for the old engine";
}

TEST(PrepackLifecycle, ShareParametersAliasesOnePackedCopy) {
  Network owner = blocked_net();
  Rng rng(7);
  owner.initialize(rng);
  owner.freeze_for_inference();

  Network sharer = blocked_net();
  sharer.set_training(false);
  sharer.share_parameters(owner);

  // Pointer equality: the sharer adopted the owner's panels rather
  // than packing its own copy of the (shared) weights.
  EXPECT_EQ(conv_at(sharer, 0).prepacked().get(),
            conv_at(owner, 0).prepacked().get());
  EXPECT_EQ(fc_at(sharer, 3).prepacked().get(),
            fc_at(owner, 3).prepacked().get());

  const Tensor in = blocked_input(8, 23);
  const Tensor a = owner.forward(in);
  EXPECT_EQ(max_abs_diff(a, sharer.forward(in)), 0.0);
}

TEST(PrepackLifecycle, ConcurrentForwardsOverSharedPacksAgree) {
  Network owner = blocked_net();
  Rng rng(7);
  owner.initialize(rng);
  owner.freeze_for_inference();

  const Tensor in = blocked_input(8, 24);
  const Tensor expected = owner.forward(in);

  constexpr std::size_t kReaders = 4;
  std::vector<std::unique_ptr<Network>> readers;
  for (std::size_t i = 0; i < kReaders; ++i) {
    auto net = std::make_unique<Network>(blocked_net());
    net->set_training(false);
    net->share_parameters(owner);
    readers.push_back(std::move(net));
  }

  std::vector<Tensor> outputs(kReaders);
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (std::size_t i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      for (int pass = 0; pass < 3; ++pass) {
        outputs[i] = readers[i]->forward(in);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kReaders; ++i) {
    EXPECT_EQ(max_abs_diff(expected, outputs[i]), 0.0)
        << "reader " << i << " diverged over the shared packs";
  }
}

TEST(PrepackLifecycle, FrozenWinogradF4LayerHoldsOnlyItsOwnPanels) {
  HeuristicTuner tuning;
  // A zoo-sized 3x3 layer: the heuristic tuner picks F(4x4,3x3).
  const ConvConfig geometry{.batch = 1, .input = 28, .channels = 64,
                            .filters = 64, .kernel = 3, .stride = 1,
                            .pad = 1};
  const auto layer =
      frozen_conv(geometry, conv::Strategy::kUnrolling, /*tuned=*/true);
  const auto pack = layer->prepacked();
  ASSERT_NE(pack, nullptr);
  EXPECT_EQ(pack->format, "winograd-f4");
  // 36 tile-position panels of F x C each — no F x CKK GEMM panel and
  // no 16-panel F(2x2,3x3) set.
  ASSERT_EQ(pack->panels.size(), 36U);
  std::size_t panel_bytes = 0;
  for (const auto& panel : pack->panels) {
    EXPECT_EQ(panel.rows(), geometry.filters);
    EXPECT_EQ(panel.cols(), geometry.channels);
    panel_bytes += panel.bytes();
  }
  EXPECT_EQ(pack->transformed.size(),
            36 * geometry.filters * geometry.channels);
  EXPECT_EQ(pack->bytes(),
            panel_bytes + pack->transformed.size() * sizeof(float));
}

TEST(PrepackLifecycle, DepthwiseAndFftLayersHoldNoPack) {
  HeuristicTuner tuning;
  const ConvConfig depthwise{.batch = 1, .input = 16, .channels = 8,
                             .filters = 8, .kernel = 3, .stride = 1,
                             .pad = 1, .groups = 8};
  ASSERT_EQ(tuning.tuner.choose(depthwise, tune::Pass::kForward)->name(),
            "depthwise");
  EXPECT_EQ(frozen_conv(depthwise, conv::Strategy::kUnrolling, true)
                ->prepacked(),
            nullptr);

  const ConvConfig dense{.batch = 1, .input = 16, .channels = 8,
                         .filters = 16, .kernel = 5, .stride = 1, .pad = 2};
  EXPECT_EQ(frozen_conv(dense, conv::Strategy::kFft, false)->prepacked(),
            nullptr);
}

TEST(PrepackLifecycle, FrozenTunedMobileNetRepacksNoConvWeights) {
  HeuristicTuner tuning;
  Network net = mobilenet_v1(1).instantiate();
  Rng rng(3);
  net.initialize(rng);
  net.fuse_conv_relu();
  net.enable_autotune(true);
  net.freeze_for_inference();

  std::size_t packs = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto* conv = dynamic_cast<const ConvLayer*>(&net.layer(i));
    if (conv == nullptr || conv->prepacked() == nullptr) continue;
    ++packs;
    EXPECT_EQ(conv->prepacked()->format,
              tuning.tuner.choose(conv->geometry(), tune::Pass::kForward)
                  ->name())
        << conv->name();
  }
  EXPECT_GT(packs, 0U);

  // Layer by layer, so only the conv forwards are accounted: conv
  // weights are the GEMMs' A operand (the FC layer packs activations as
  // its A).
  Rng in_rng(4);
  Tensor x(1, 3, 224, 224);
  x.fill_uniform(in_rng);
  Tensor y;
  const auto& packed_a = obs::metrics().counter("blas.sgemm.bytes_packed_a");
  std::int64_t conv_bytes = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const bool conv = dynamic_cast<const ConvLayer*>(&net.layer(i)) != nullptr;
    const std::int64_t before = packed_a.value();
    net.layer(i).forward(x, y);
    if (conv) conv_bytes += packed_a.value() - before;
    std::swap(x, y);
  }
  EXPECT_EQ(conv_bytes, 0) << "a frozen, tuned forward re-packed conv weights";
}

TEST(PrepackLifecycle, PackInAnotherEnginesFormatRunsStaged) {
  Network owner = blocked_net();  // static im2col + GEMM engine
  Rng rng(7);
  owner.initialize(rng);
  owner.freeze_for_inference();

  // The sharer's conv runs Winograd but adopts the owner's GEMM pack.
  Network sharer = blocked_net();
  dynamic_cast<ConvLayer&>(sharer.layer(0))
      .set_strategy(conv::Strategy::kWinograd);
  sharer.set_training(false);
  sharer.share_parameters(owner);
  ASSERT_EQ(conv_at(sharer, 0).prepacked().get(),
            conv_at(owner, 0).prepacked().get());

  Network plain = blocked_net();
  dynamic_cast<ConvLayer&>(plain.layer(0))
      .set_strategy(conv::Strategy::kWinograd);
  Rng same(7);
  plain.initialize(same);
  plain.set_training(false);

  const auto& fallbacks = obs::metrics().counter("conv.winograd.fallbacks");
  const std::int64_t before = fallbacks.value();
  const Tensor in = blocked_input(8, 25);
  const Tensor adopted = sharer.forward(in);
  EXPECT_EQ(fallbacks.value(), before + 1);
  EXPECT_EQ(max_abs_diff(adopted, plain.forward(in)), 0.0);
}

}  // namespace
}  // namespace gpucnn::nn
