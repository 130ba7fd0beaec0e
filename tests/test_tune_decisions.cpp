// Pins the heuristic tuner's engine choice for every conv layer of the
// model zoo, so a refactor of the engine list or of the search order
// cannot silently move a layer to another engine. Expected names were
// recorded from the tuner before the engine registry existed. Also pins
// the tune-cache "engines" header: a new engine set discards every cache
// that older binaries wrote, so it must never change by accident.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nn/model_spec.hpp"
#include "tune/autotuner.hpp"

namespace gpucnn::tune {
namespace {

struct Pin {
  nn::ModelSpec (*model)(std::size_t batch);
  std::size_t batch;
  /// Space-separated engine names, one per conv layer in spec order.
  const char* engines;
};

// clang-format off
const Pin kPins[] = {
    {nn::lenet5, 1,
         "unrolling unrolling"},
    {nn::alexnet, 1,
         "unrolling unrolling unrolling unrolling unrolling"},
    {nn::vgg16, 1,
         "unrolling winograd-f4 winograd-f4 winograd-f4 winograd-f4 "
         "winograd-f4 winograd-f4 winograd-f4 winograd-f4 winograd-f4 "
         "unrolling unrolling unrolling"},
    {nn::googlenet, 1,
         "unrolling unrolling winograd-f4 unrolling unrolling "
         "winograd-f4 unrolling unrolling unrolling unrolling "
         "unrolling winograd-f4 unrolling unrolling unrolling "
         "unrolling unrolling unrolling unrolling unrolling unrolling "
         "unrolling unrolling unrolling unrolling unrolling unrolling "
         "unrolling unrolling unrolling unrolling unrolling unrolling "
         "unrolling unrolling unrolling unrolling unrolling unrolling "
         "unrolling unrolling unrolling unrolling unrolling unrolling "
         "unrolling unrolling unrolling unrolling unrolling unrolling "
         "unrolling unrolling unrolling unrolling unrolling unrolling"},
    {nn::overfeat, 1,
         "unrolling unrolling unrolling unrolling unrolling"},
    {nn::mobilenet_v1, 1,
         "unrolling depthwise unrolling depthwise unrolling depthwise "
         "unrolling depthwise unrolling depthwise unrolling depthwise "
         "unrolling depthwise unrolling depthwise unrolling depthwise "
         "unrolling depthwise unrolling depthwise unrolling depthwise "
         "unrolling depthwise unrolling"},
    {nn::mobilenet_mini, 1,
         "unrolling depthwise unrolling depthwise unrolling"},
    {nn::lenet5, 64,
         "unrolling direct"},
    {nn::alexnet, 64,
         "unrolling direct fft direct direct"},
    {nn::vgg16, 64,
         "direct winograd-f4 winograd-f4 winograd-f4 winograd-f4 "
         "winograd-f4 winograd-f4 winograd-f4 winograd-f4 winograd-f4 "
         "fft fft fft"},
    {nn::googlenet, 64,
         "unrolling unrolling winograd-f4 unrolling unrolling "
         "winograd-f4 unrolling fft unrolling unrolling unrolling "
         "winograd-f4 unrolling fft unrolling unrolling unrolling fft "
         "unrolling unrolling unrolling unrolling unrolling fft "
         "unrolling unrolling unrolling unrolling unrolling fft "
         "unrolling unrolling unrolling unrolling unrolling fft "
         "unrolling unrolling unrolling unrolling unrolling fft "
         "unrolling unrolling unrolling unrolling unrolling direct "
         "unrolling direct unrolling direct unrolling direct unrolling "
         "fft unrolling"},
    {nn::overfeat, 64,
         "unrolling fft fft fft fft"},
    {nn::mobilenet_v1, 64,
         "unrolling depthwise unrolling depthwise unrolling depthwise "
         "unrolling depthwise unrolling depthwise unrolling depthwise "
         "unrolling depthwise unrolling depthwise unrolling depthwise "
         "unrolling depthwise unrolling depthwise unrolling depthwise "
         "direct depthwise direct"},
    {nn::mobilenet_mini, 64,
         "unrolling depthwise unrolling depthwise unrolling"},
};
// clang-format on

std::vector<std::string> split(const char* text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string name; in >> name;) out.push_back(name);
  return out;
}

class TunePins : public ::testing::Test {
 protected:
  void SetUp() override {
    tuner_ = &Autotuner::instance();
    mode_before_ = tuner_->mode();
    path_before_ = tuner_->set_cache_path("");
    tuner_->clear();
    tuner_->set_mode(Mode::kHeuristic);
  }
  void TearDown() override {
    tuner_->clear();
    (void)tuner_->set_cache_path(path_before_);
    tuner_->set_mode(mode_before_);
  }

  Autotuner* tuner_ = nullptr;
  Mode mode_before_{};
  std::string path_before_;
};

TEST_F(TunePins, HeuristicDecisionsForEveryZooConvLayerAreUnchanged) {
  for (const Pin& pin : kPins) {
    const nn::ModelSpec spec = pin.model(pin.batch);
    const std::vector<std::string> expected = split(pin.engines);
    std::size_t conv = 0;
    for (const nn::LayerSpec& layer : spec.layers) {
      if (layer.kind != nn::LayerSpec::Kind::kConv) continue;
      ASSERT_LT(conv, expected.size()) << spec.name << " has more convs";
      for (const Pass pass :
           {Pass::kForward, Pass::kBackwardData, Pass::kBackwardFilter}) {
        EXPECT_EQ(tuner_->decide(layer.conv, pass).engine_name,
                  expected[conv])
            << spec.name << " batch " << pin.batch << ' ' << layer.name
            << ' ' << to_string(pass);
      }
      ++conv;
    }
    EXPECT_EQ(conv, expected.size()) << spec.name << " batch " << pin.batch;
  }
}

TEST_F(TunePins, CacheEngineSetHeaderIsUnchanged) {
  const std::string path = testing::TempDir() + "tune_cache_engines.json";
  ASSERT_TRUE(tuner_->save_cache(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find(
                "\"engines\": \"direct,unrolling,fft,fft-tiled,winograd,"
                "depthwise,winograd-f4,unrolling-int8\""),
            std::string::npos)
      << text.str();
}

}  // namespace
}  // namespace gpucnn::tune
