#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "nn/activation_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/fc_layer.hpp"
#include "nn/pool_layer.hpp"

namespace gpucnn::nn {
namespace {

Network small_net() {
  Network net;
  net.emplace<ConvLayer>("c",
                         ConvConfig{.batch = 1, .input = 6, .channels = 1,
                                    .filters = 2, .kernel = 3,
                                    .stride = 1});
  net.emplace<FcLayer>("fc", 2 * 4 * 4, 3);
  return net;
}

TEST(Serialize, RoundTripRestoresExactBits) {
  auto a = small_net();
  Rng rng(1);
  a.initialize(rng);
  std::stringstream buf;
  save_parameters(a, buf);

  auto b = small_net();
  Rng other(2);
  b.initialize(other);
  load_parameters(b, buf);

  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(max_abs_diff(*pa[i], *pb[i]), 0.0) << "tensor " << i;
  }
}

TEST(Serialize, RestoredNetworkComputesIdentically) {
  auto a = small_net();
  Rng rng(3);
  a.initialize(rng);
  std::stringstream buf;
  save_parameters(a, buf);
  auto b = small_net();
  load_parameters(b, buf);

  Tensor in(2, 1, 6, 6);
  in.fill_uniform(rng);
  const Tensor out_a = [&] {
    Tensor t(a.forward(in).shape());
    std::copy(a.forward(in).data().begin(), a.forward(in).data().end(),
              t.data().begin());
    return t;
  }();
  EXPECT_EQ(max_abs_diff(out_a, b.forward(in)), 0.0);
}

TEST(Serialize, RejectsBadMagic) {
  auto net = small_net();
  std::stringstream buf("NOPE-not-a-checkpoint");
  EXPECT_THROW(load_parameters(net, buf), Error);
}

/// Every parameter value of `net`, tensor by tensor.
std::vector<std::vector<float>> snapshot(Network& net) {
  std::vector<std::vector<float>> values;
  for (const Tensor* p : net.parameters()) {
    values.emplace_back(p->data().begin(), p->data().end());
  }
  return values;
}

TEST(Serialize, RejectsTruncatedStream) {
  auto source = small_net();
  Rng rng(4);
  source.initialize(rng);
  std::stringstream buf;
  save_parameters(source, buf);
  const std::string full = buf.str();

  // Cut inside the magic, the version and the tensor count; at the start
  // of every tensor header and of every payload; inside every payload;
  // and one byte short of the end.
  constexpr std::size_t kHeader = 4 + 4 + 8;
  constexpr std::size_t kTensorHeader = 4 * 8;
  std::vector<std::size_t> cuts{2, 6, 12};
  std::size_t offset = kHeader;
  for (const Tensor* p : source.parameters()) {
    const std::size_t payload = p->count() * sizeof(float);
    cuts.push_back(offset);
    cuts.push_back(offset + kTensorHeader);
    cuts.push_back(offset + kTensorHeader + payload / 2);
    offset += kTensorHeader + payload;
  }
  ASSERT_EQ(offset, full.size());
  cuts.push_back(full.size() - 1);

  // A rejected load must leave the target's parameters as they were.
  auto target = small_net();
  Rng other(40);
  target.initialize(other);
  const auto before = snapshot(target);
  for (const std::size_t cut : cuts) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(load_parameters(target, truncated), Error) << "cut " << cut;
    EXPECT_EQ(snapshot(target), before) << "cut " << cut;
  }
}

TEST(Serialize, RejectsArchitectureMismatch) {
  auto a = small_net();
  Rng rng(5);
  a.initialize(rng);
  std::stringstream buf;
  save_parameters(a, buf);

  Network different;
  different.emplace<FcLayer>("fc", 8, 2);
  EXPECT_THROW(load_parameters(different, buf), Error);

  // Same tensor count, and every tensor but the last has the same shape:
  // a 3 -> 3 FC layer's weights are (1, 1, 3, 3), as are those of a
  // single-filter 3x3 conv, but their biases differ.
  const auto with_tail = [](bool fc_tail) {
    Network net = small_net();
    if (fc_tail) {
      net.emplace<FcLayer>("tail", 3, 3);
    } else {
      net.emplace<ConvLayer>("tail",
                             ConvConfig{.batch = 1, .input = 3, .channels = 1,
                                        .filters = 1, .kernel = 3,
                                        .stride = 1});
    }
    return net;
  };
  auto source = with_tail(true);
  source.initialize(rng);
  std::stringstream checkpoint;
  save_parameters(source, checkpoint);
  auto target = with_tail(false);
  Rng other(50);
  target.initialize(other);
  const auto before = snapshot(target);
  EXPECT_THROW(load_parameters(target, checkpoint), Error);
  EXPECT_EQ(snapshot(target), before);
}

TEST(Serialize, FileRoundTrip) {
  auto a = small_net();
  Rng rng(6);
  a.initialize(rng);
  const std::string path = ::testing::TempDir() + "/gpucnn_ckpt.bin";
  save_parameters(a, path);
  auto b = small_net();
  load_parameters(b, path);
  EXPECT_EQ(max_abs_diff(*a.parameters()[0], *b.parameters()[0]), 0.0);
}

TEST(Serialize, MissingFileThrows) {
  auto net = small_net();
  EXPECT_THROW(load_parameters(net, "/nonexistent/dir/ckpt.bin"), Error);
}

/// Conv + FC sized so both forward GEMMs take the blocked path at batch
/// 8, where a frozen layer reads its packed panels instead of the weight
/// tensor.
Network packed_net() {
  Network net;
  net.emplace<ConvLayer>("conv",
                         ConvConfig{.batch = 1, .input = 16, .channels = 8,
                                    .filters = 16, .kernel = 3, .stride = 1,
                                    .pad = 1});
  net.emplace<ActivationLayer>("relu");
  net.emplace<PoolLayer>("pool", 2, 2);
  net.emplace<FcLayer>("fc", 8 * 8 * 16, 64);
  return net;
}

Tensor packed_input() {
  Rng rng(21);
  Tensor in(8, 8, 16, 16);
  in.fill_uniform(rng);
  return in;
}

/// A checkpoint of packed_net() initialised from `seed`.
std::string packed_checkpoint(std::uint64_t seed) {
  auto net = packed_net();
  Rng rng(seed);
  net.initialize(rng);
  std::stringstream buf;
  save_parameters(net, buf);
  return buf.str();
}

void load_text(Network& net, const std::string& checkpoint) {
  std::stringstream buf(checkpoint);
  load_parameters(net, buf);
}

/// The output of a never-frozen packed_net() loaded from `checkpoint`.
Tensor unfrozen_output(const std::string& checkpoint, const Tensor& in) {
  auto net = packed_net();
  load_text(net, checkpoint);
  net.set_training(false);
  return net.forward(in);
}

/// A packed_net() initialised from seed 30 and frozen for inference.
Network frozen_net() {
  auto net = packed_net();
  Rng rng(30);
  net.initialize(rng);
  net.freeze_for_inference();
  return net;
}

TEST(Serialize, LoadIntoAFrozenNetworkServesTheLoadedWeights) {
  auto net = frozen_net();
  const std::string checkpoint = packed_checkpoint(31);
  load_text(net, checkpoint);
  const Tensor in = packed_input();
  EXPECT_EQ(max_abs_diff(net.forward(in), unfrozen_output(checkpoint, in)),
            0.0);
}

TEST(Serialize, RefreezingAfterALoadPacksTheLoadedWeights) {
  auto net = frozen_net();
  const auto& conv = dynamic_cast<const ConvLayer&>(net.layer(0));
  const auto& fc = dynamic_cast<const FcLayer&>(net.layer(3));
  const auto old_conv_pack = conv.prepacked();
  const auto old_fc_pack = fc.prepacked();
  ASSERT_NE(old_conv_pack, nullptr);
  ASSERT_NE(old_fc_pack, nullptr);

  const std::string checkpoint = packed_checkpoint(32);
  load_text(net, checkpoint);
  net.freeze_for_inference();
  ASSERT_NE(conv.prepacked(), nullptr);
  ASSERT_NE(fc.prepacked(), nullptr);
  EXPECT_NE(conv.prepacked(), old_conv_pack);
  EXPECT_NE(fc.prepacked(), old_fc_pack);
  const Tensor in = packed_input();
  EXPECT_EQ(max_abs_diff(net.forward(in), unfrozen_output(checkpoint, in)),
            0.0);
}

TEST(Serialize, RejectedLoadKeepsAFrozenNetworksPacks) {
  auto net = frozen_net();
  const auto& conv = dynamic_cast<const ConvLayer&>(net.layer(0));
  const auto& fc = dynamic_cast<const FcLayer&>(net.layer(3));
  const auto conv_pack = conv.prepacked();
  const auto fc_pack = fc.prepacked();
  ASSERT_NE(conv_pack, nullptr);
  ASSERT_NE(fc_pack, nullptr);
  const Tensor in = packed_input();
  const Tensor before = net.forward(in);

  const std::string checkpoint = packed_checkpoint(35);
  EXPECT_THROW(load_text(net, checkpoint.substr(0, checkpoint.size() - 1)),
               Error);
  EXPECT_EQ(conv.prepacked(), conv_pack);
  EXPECT_EQ(fc.prepacked(), fc_pack);
  EXPECT_EQ(max_abs_diff(net.forward(in), before), 0.0);
}

/// A path unique to the running test: ctest runs tests concurrently.
std::string temp_path(std::string_view file) {
  return ::testing::TempDir() +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::string(file);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

TEST(Serialize, FileWithBytesAfterItsLastTensorIsRejectedUntouched) {
  auto net = frozen_net();
  const auto& conv = dynamic_cast<const ConvLayer&>(net.layer(0));
  const auto& fc = dynamic_cast<const FcLayer&>(net.layer(3));
  const auto conv_pack = conv.prepacked();
  const auto fc_pack = fc.prepacked();
  ASSERT_NE(conv_pack, nullptr);
  ASSERT_NE(fc_pack, nullptr);
  const auto before = snapshot(net);

  // One stray byte, and a whole second checkpoint: each file starts with
  // a valid checkpoint of a differently seeded network.
  const std::string checkpoint = packed_checkpoint(36);
  const std::pair<std::string, std::string> files[] = {
      {"one_extra_byte.bin", checkpoint + '\0'},
      {"two_checkpoints.bin", checkpoint + packed_checkpoint(37)}};
  for (const auto& [name, bytes] : files) {
    const std::string path = temp_path(name);
    write_file(path, bytes);
    EXPECT_THROW(load_parameters(net, path), Error) << name;
    EXPECT_EQ(snapshot(net), before) << name;
    EXPECT_EQ(conv.prepacked(), conv_pack) << name;
    EXPECT_EQ(fc.prepacked(), fc_pack) << name;
    std::remove(path.c_str());
  }

  // The checkpoint alone loads from a file.
  const std::string path = temp_path("exact.bin");
  write_file(path, checkpoint);
  EXPECT_NO_THROW(load_parameters(net, path));
  EXPECT_NE(snapshot(net), before);
  std::remove(path.c_str());
}

TEST(Serialize, BackToBackCheckpointsLoadInSequenceFromOneStream) {
  // The stream overload reads one checkpoint and leaves what follows for
  // the next reader.
  auto first = small_net();
  Rng rng(7);
  first.initialize(rng);
  auto second = small_net();
  Rng other(8);
  second.initialize(other);
  std::stringstream buf;
  save_parameters(first, buf);
  save_parameters(second, buf);

  auto target = small_net();
  load_parameters(target, buf);
  EXPECT_EQ(snapshot(target), snapshot(first));
  load_parameters(target, buf);
  EXPECT_EQ(snapshot(target), snapshot(second));
  EXPECT_EQ(buf.peek(), std::char_traits<char>::eof());
}

TEST(Serialize, LoadIntoAQuantizedNetworkThrowsAndKeepsItsWeights) {
  auto net = packed_net();
  Rng rng(33);
  net.initialize(rng);
  ASSERT_EQ(net.quantize().layers_quantized, 1U);
  std::vector<std::vector<float>> before;
  for (const Tensor* p : net.parameters()) {
    before.emplace_back(p->data().begin(), p->data().end());
  }

  EXPECT_THROW(load_text(net, packed_checkpoint(34)), Error);
  const auto after = net.parameters();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(std::equal(before[i].begin(), before[i].end(),
                           after[i]->data().begin(), after[i]->data().end()))
        << "tensor " << i;
  }
}

}  // namespace
}  // namespace gpucnn::nn
