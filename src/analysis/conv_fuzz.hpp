// Seeded convolution-configuration fuzzer.
//
// The paper's credibility rests on seven implementation models agreeing
// over a wide parameter space, not just the Table I grid. This harness
// generates adversarial-but-valid ConvConfigs (stride > kernel,
// pad >= kernel, single-channel / single-image shapes, non-power-of-two
// sizes that stress FFT padding, grouped and odd geometries), runs each
// through every real numeric engine (direct / im2col+GEMM / FFT /
// tiled-FFT / Winograd / depthwise) on all three passes,
// cross-checks outputs against the direct reference, and validates the
// seven framework plans against the gpusim invariants (finite
// non-negative times, workspace accounting balances).
//
// Everything is deterministic per (seed, index): config `index` of seed
// `S` is identical no matter which subrange runs, so a failure is
// reproduced by `tools/conv_fuzz --seed S --start INDEX --count 1`.
// The harness runs with workspace scratch poisoning on by default so
// kernels reading recycled arena memory before writing it surface as
// NaN mismatches (see docs/TESTING.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/shape.hpp"

namespace gpucnn::analysis {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t count = 200;
  std::size_t start = 0;     ///< first config index (repro subranges)
  bool poison = true;        ///< scratch-poison the arena for the run
  bool fused = true;         ///< cross-check fused conv+bias+ReLU layers
  bool int8 = false;         ///< cross-check int8 forwards against fp32
  bool prepack = false;      ///< cross-check prepacked vs staged forwards
  bool depthwise = false;    ///< depthwise-only generator (groups == C)
  bool winograd = false;     ///< winograd-only generator (k = 3, s = 1)
  bool tune_cache = false;   ///< round-trip autotuner decisions via disk
  std::string tune_cache_path;  ///< cache file (tune_cache); "" = default
  std::ostream* log = nullptr;  ///< per-config progress when non-null
};

/// One failed check, with everything needed to rerun it.
struct FuzzFailure {
  std::size_t index = 0;
  ConvConfig config;
  std::string what;
};

/// Outcome and coverage accounting of a fuzz run.
struct FuzzReport {
  std::size_t configs_run = 0;
  std::size_t engine_checks = 0;  ///< (engine, pass) output comparisons
  std::size_t engine_skips = 0;   ///< unsupported (engine, config) pairs
  std::size_t plan_checks = 0;    ///< framework plans validated
  std::size_t plan_skips = 0;     ///< shape-limited (framework, config)
  std::size_t fused_checks = 0;   ///< fused-vs-unfused comparisons
  std::size_t int8_checks = 0;    ///< int8-vs-fp32 forward comparisons
  std::size_t prepack_checks = 0;  ///< prepacked-vs-staged comparisons
  std::size_t tune_checks = 0;    ///< tune-cache round-trips validated
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// The adversarial config at (seed, index); pure function of its
/// arguments, independent of any other index.
[[nodiscard]] ConvConfig fuzz_config(std::uint64_t seed, std::size_t index);

/// The depthwise-degenerate config at (seed, index): always
/// groups == channels, channel multipliers > 1 included — the family the
/// DepthwiseConv engine owns. Pure function of its arguments.
[[nodiscard]] ConvConfig fuzz_depthwise_config(std::uint64_t seed,
                                               std::size_t index);

/// The Winograd-eligible config at (seed, index): always k = 3, s = 1,
/// pad 0–2, ungrouped — the family both WinogradConv tile sizes own —
/// weighted toward the adversarial corners: odd output sizes whose tile
/// overhang crosses the zero-padding, C = 1 / F = 1 degenerates, and
/// inputs smaller than one tile. Pure function of its arguments.
[[nodiscard]] ConvConfig fuzz_winograd_config(std::uint64_t seed,
                                              std::size_t index);

/// Checks one config (engines + plans). Failure strings are appended to
/// `report.failures` tagged with `index`; counters accumulate.
void check_config(const ConvConfig& cfg, std::uint64_t seed,
                  std::size_t index, FuzzReport& report);

/// Cross-checks every exact engine's bias and bias+ReLU epilogue
/// against its plain forward followed by blas::add_bias and the clamp,
/// then a fused conv+bias+ReLU ConvLayer against the unfused
/// ConvLayer -> ActivationLayer pair with identical parameters: forward
/// output and all three gradients. Every comparison is bit for bit.
void check_fused(const ConvConfig& cfg, std::uint64_t seed,
                 std::size_t index, FuzzReport& report);

/// Cross-checks the int8 quantized forward (im2col+int8-GEMM) against
/// the fp32 im2col+GEMM reference — plain and fused bias+ReLU — under a
/// quantization-aware tolerance: K * (|a|max * dw/2 + |w|max * da/2 +
/// da * dw/4), the worst-case dequantized rounding error of a K-term dot
/// product with activation step da and weight step dw. A
/// zero-point-correction or saturation bug exceeds that bound by orders
/// of magnitude.
void check_int8(const ConvConfig& cfg, std::uint64_t seed,
                std::size_t index, FuzzReport& report);

/// Cross-checks prepacked forwards against their staged twins with
/// identical inputs, weights, and fused bias+ReLU epilogues: every
/// registry engine handed its own pack (which it must read without
/// re-packing weights) and every other engine's pack (which it must
/// ignore), plus the int8 quantized path. Pack-once/execute-many
/// reuses the exact panel bytes the staged path packs per call, so every
/// comparison demands bit-identity — any difference is a packing-layout
/// or offset bug, not rounding.
void check_prepack(const ConvConfig& cfg, std::uint64_t seed,
                   std::size_t index, FuzzReport& report);

/// Round-trips measured autotuner decisions for `cfg` through the disk
/// cache at `path`: decide (measure, 1 trial) on all three passes, save,
/// clear, reload, decide again — the reloaded decisions must name the
/// same engines without re-measuring, and the winner must never be more
/// than 5% slower than the static default's measured time.
void check_tune_roundtrip(const ConvConfig& cfg, std::size_t index,
                          FuzzReport& report, const std::string& path);

/// The one-line command rerunning exactly config (seed, index);
/// `depthwise` / `winograd` select the family generator's sequence.
[[nodiscard]] std::string repro_command(std::uint64_t seed,
                                        std::size_t index,
                                        bool depthwise = false,
                                        bool winograd = false);

/// Generates and checks options.count configs starting at options.start.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& options);

}  // namespace gpucnn::analysis
