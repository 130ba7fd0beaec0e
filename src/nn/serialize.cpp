#include "nn/serialize.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <vector>

#include "core/error.hpp"
#include "nn/quantized_conv_layer.hpp"

namespace gpucnn::nn {
namespace {

constexpr std::array<char, 4> kMagic{'G', 'C', 'N', 'N'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  check(is.good(), "checkpoint truncated");
  return value;
}

}  // namespace

void save_parameters(Network& net, std::ostream& os) {
  os.write(kMagic.data(), kMagic.size());
  write_pod(os, kVersion);
  const auto params = net.parameters();
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const Tensor* p : params) {
    const auto& s = p->shape();
    write_pod(os, static_cast<std::uint64_t>(s.n));
    write_pod(os, static_cast<std::uint64_t>(s.c));
    write_pod(os, static_cast<std::uint64_t>(s.h));
    write_pod(os, static_cast<std::uint64_t>(s.w));
    os.write(reinterpret_cast<const char*>(p->raw()),
             static_cast<std::streamsize>(p->count() * sizeof(float)));
  }
  check(os.good(), "checkpoint write failed");
}

void save_parameters(Network& net, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  check(os.is_open(), "cannot open checkpoint for writing: " + path);
  save_parameters(net, os);
}

namespace {

// Reads and validates one whole checkpoint without touching `net`, so a
// rejected one leaves every weight and pack as it was.
std::vector<std::vector<float>> stage_checkpoint(Network& net,
                                                 std::istream& is) {
  // A quantized layer's int8 weights and calibrated activation range
  // derive from the fp32 weights a load would replace.
  for (std::size_t i = 0; i < net.size(); ++i) {
    check(dynamic_cast<const QuantizedConvLayer*>(&net.layer(i)) == nullptr,
          "cannot load a checkpoint into a quantized network; load it "
          "before Network::quantize()");
  }
  std::array<char, 4> magic{};
  is.read(magic.data(), magic.size());
  check(is.good() && magic == kMagic, "not a gpucnn checkpoint");
  const auto version = read_pod<std::uint32_t>(is);
  check(version == kVersion, "unsupported checkpoint version");
  const auto params = net.parameters();
  const auto count = read_pod<std::uint64_t>(is);
  check(count == params.size(),
        "checkpoint parameter-tensor count mismatch");
  std::vector<std::vector<float>> staged;
  staged.reserve(params.size());
  for (const Tensor* p : params) {
    const TensorShape shape{
        static_cast<std::size_t>(read_pod<std::uint64_t>(is)),
        static_cast<std::size_t>(read_pod<std::uint64_t>(is)),
        static_cast<std::size_t>(read_pod<std::uint64_t>(is)),
        static_cast<std::size_t>(read_pod<std::uint64_t>(is))};
    check(shape == p->shape(),
          "checkpoint tensor shape mismatch (different architecture?)");
    std::vector<float>& values = staged.emplace_back(p->count());
    is.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
    check(is.good(), "checkpoint truncated");
  }
  return staged;
}

// Writes a staged checkpoint into `net`. The weights are rewritten in
// place, so every pack built from them goes stale.
void commit_checkpoint(Network& net,
                       const std::vector<std::vector<float>>& staged) {
  for (std::size_t i = 0; i < net.size(); ++i) net.layer(i).drop_prepack();
  const auto params = net.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), params[i]->raw());
  }
}

}  // namespace

void load_parameters(Network& net, std::istream& is) {
  commit_checkpoint(net, stage_checkpoint(net, is));
}

void load_parameters(Network& net, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  check(is.is_open(), "cannot open checkpoint for reading: " + path);
  const auto staged = stage_checkpoint(net, is);
  // A checkpoint file holds exactly one checkpoint: bytes after its last
  // tensor mean a corrupt or concatenated file.
  check(is.peek() == std::char_traits<char>::eof(),
        "checkpoint file has bytes after its last tensor: " + path);
  commit_checkpoint(net, staged);
}

}  // namespace gpucnn::nn
