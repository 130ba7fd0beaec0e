// Binary checkpoint serialisation for network parameters.
//
// Format (little-endian): magic "GCNN", u32 version, u64 tensor count,
// then per tensor: u64 n,c,h,w followed by n*c*h*w raw floats. Loading
// validates shapes against the target network, so a checkpoint can only
// be restored into an architecturally identical model.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/network.hpp"

namespace gpucnn::nn {

/// Writes all network parameters to a stream / file.
void save_parameters(Network& net, std::ostream& os);
void save_parameters(Network& net, const std::string& path);

/// Restores parameters in place and drops every weight pack built from
/// the old values (freeze_for_inference packs afresh). Throws
/// gpucnn::Error on magic/version/shape mismatch or truncated input, and
/// when the network holds quantized layers (their int8 weights derive
/// from the weights a load would replace). The whole checkpoint is read
/// and validated before anything is written, so a rejected load leaves
/// the network's weights and packs untouched. The stream overload reads
/// exactly one checkpoint and leaves any later bytes for the next reader;
/// the file overload also rejects a file with bytes after its last
/// tensor.
void load_parameters(Network& net, std::istream& is);
void load_parameters(Network& net, const std::string& path);

}  // namespace gpucnn::nn
