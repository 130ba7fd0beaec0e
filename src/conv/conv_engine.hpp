// The common interface of the three convolution strategies the paper
// surveys (§II.B): direct, unrolling-based (im2col + GEMM) and FFT-based.
//
// Convolution follows the deep-learning convention (cross-correlation):
//   out(n,f,y,x) = sum_{c,ky,kx} in(n,c, y*s + ky - p, x*s + kx - p)
//                                * w(f,c,ky,kx)
// All three engines implement forward, backward-data and backward-filter
// passes and must agree bit-for-tolerance with each other; the agreement
// is enforced by parameterised tests.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "blas/packed.hpp"
#include "core/shape.hpp"
#include "core/tensor.hpp"

namespace gpucnn::conv {

/// The paper's three convolution strategies, plus Winograd minimal
/// filtering — the post-paper fourth strategy (Lavin & Gray) this
/// reproduction adds as an extension.
enum class Strategy { kDirect, kUnrolling, kFft, kWinograd };

[[nodiscard]] std::string_view to_string(Strategy s);

/// A conv layer's filters packed once into one engine's weight layout —
/// blas micro-kernel panels (blas/packed.hpp) the engine's forward GEMMs
/// consume as their A operand. Built by ConvEngine::prepack(); an engine
/// consumes only the format its own prepack() builds, so a layer holds
/// exactly the pack its forward engine reads. Immutable after
/// construction and shared by shared_ptr across serving workers. The
/// panels keep no reference to the values they were packed from: the
/// forward passes the filter tensor (or `transformed` below) alongside
/// each panel, for blas to stage from when the pack is stale.
struct PackedFilters {
  /// Name of the engine whose prepack() built this pack: the format tag
  /// an engine's forward checks before reading the panels.
  std::string_view format;
  /// First element of the filter tensor the pack was built from, so an
  /// owner can tell its own live pack from one of other weights.
  const float* source = nullptr;
  /// Weights pre-transformed by the engine (Winograd's U = G g G^T),
  /// owned here because the values exist nowhere else; empty when the
  /// panels pack the filter tensor itself.
  std::vector<float> transformed;
  /// One panel per GEMM the forward runs: per group, or per Winograd
  /// tile position.
  std::vector<blas::PackedMatrix> panels;

  /// True while the panels match the active SIMD dispatch; a stale pack
  /// still computes correctly, but stages its operand on every call.
  [[nodiscard]] bool fresh() const {
    return !panels.empty() && panels.front().valid();
  }

  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = transformed.size() * sizeof(float);
    for (const auto& p : panels) total += p.bytes();
    return total;
  }
};

/// Panel `i` of `packed` for a GEMM's pack argument; nullptr (stage the
/// operand) when there is no pack.
[[nodiscard]] inline const blas::PackedMatrix* panel(
    const PackedFilters* packed, std::size_t i) {
  return packed == nullptr ? nullptr : &packed->panels[i];
}

/// What a forward adds to the bare convolution: an optional per-filter
/// bias (empty, or length cfg.filters) and ReLU clamp, applied as
/// output = relu?(conv(input, filters) + bias), plus an optional pack
/// built by some engine's prepack(). An engine reads the pack only when
/// it is in the engine's own format; any other pack runs the staged
/// path, bit-identically.
struct Epilogue {
  std::span<const float> bias{};
  bool relu = false;
  const PackedFilters* packed = nullptr;
};

/// A convolution implementation: stateless and thread-compatible; all
/// buffers are caller-owned.
class ConvEngine {
 public:
  virtual ~ConvEngine() = default;

  [[nodiscard]] virtual Strategy strategy() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// True for int8 engines: inference-only and lossy, so only
  /// callers that accepted quantization error may pick them.
  [[nodiscard]] virtual bool quantized() const { return false; }

  /// True when the engine can run this configuration (e.g. FFT engines
  /// require stride 1).
  [[nodiscard]] virtual bool supports(const ConvConfig& cfg) const = 0;

  /// The one forward entry point. output must be pre-shaped to
  /// cfg.output_shape(); it is overwritten with
  /// relu?(conv(input, filters) + bias). Bias and ReLU ride the engine's
  /// own write-back where it has one, else one pass over the finished
  /// output — bit-for-bit identical to a plain forward followed by
  /// blas::add_bias and the clamp. A pack in this engine's format
  /// replaces per-call weight packing; `filters` stays the staged
  /// operand, so a stale pack (SIMD dispatch changed since packing)
  /// degrades to the staged path inside blas, never to a wrong answer.
  /// Throws Error on a shape or bias-length mismatch and when
  /// !supports(cfg).
  void forward(const ConvConfig& cfg, const Tensor& input,
               const Tensor& filters, Tensor& output,
               const Epilogue& epilogue = {}) const;

  /// Packs `filters` (cfg.filter_shape()) once into the weight layout
  /// this engine's forward consumes — the pack-once/execute-many
  /// inference path. nullptr when the engine has no prepacked path on
  /// cfg (the default).
  [[nodiscard]] virtual std::shared_ptr<const PackedFilters> prepack(
      const ConvConfig& /*cfg*/, const Tensor& /*filters*/) const {
    return nullptr;
  }

  /// grad_input must be pre-shaped to cfg.input_shape(); overwritten.
  virtual void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                             const Tensor& filters,
                             Tensor& grad_input) const = 0;

  /// grad_filters must be pre-shaped to cfg.filter_shape(); overwritten.
  virtual void backward_filter(const ConvConfig& cfg, const Tensor& input,
                               const Tensor& grad_output,
                               Tensor& grad_filters) const = 0;

 protected:
  /// `epilogue.packed` when this engine built it, holding `panels`
  /// panels; nullptr (the staged path) for no pack or any other pack.
  [[nodiscard]] const PackedFilters* own_pack(const Epilogue& epilogue,
                                              std::size_t panels) const;

  /// Bias, then the ReLU clamp, in one pass over the finished output:
  /// the epilogue of engines whose kernels have no fused write-back.
  static void apply_epilogue(const ConvConfig& cfg, const Epilogue& epilogue,
                             Tensor& output);

 private:
  /// The engine's forward, called by forward() with validated arguments
  /// on a supported cfg.
  virtual void run_forward(const ConvConfig& cfg, const Tensor& input,
                           const Tensor& filters, Tensor& output,
                           const Epilogue& epilogue) const = 0;
};

/// Every built-in engine, one shared instance each — the single list of
/// engines. Order is the autotuner's base search order and the tune-cache
/// "engines" header: the seven exact fp32 engines, then the int8 engine.
/// Instances are stateless and thread-compatible.
[[nodiscard]] std::span<const ConvEngine* const> registry();

/// The registry engine called `name`; nullptr when there is none.
[[nodiscard]] const ConvEngine* find_engine(std::string_view name);

/// The first registry engine implementing `strategy`: the canonical
/// engine a layer built for a paper strategy runs.
[[nodiscard]] const ConvEngine& strategy_engine(Strategy strategy);

}  // namespace gpucnn::conv
