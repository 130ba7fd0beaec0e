#include "analysis/conv_fuzz.hpp"

#include <array>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/conv_runner.hpp"
#include "blas/vector_ops.hpp"
#include "conv/conv_engine.hpp"
#include "conv/fft_conv.hpp"
#include "conv/quantized_conv.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "core/workspace.hpp"
#include "frameworks/framework.hpp"
#include "nn/activation_layer.hpp"
#include "nn/conv_layer.hpp"
#include "obs/metrics.hpp"
#include "tune/autotuner.hpp"

namespace gpucnn::analysis {
namespace {

/// Decorrelates (seed, index) into an Rng seed; the golden-ratio stride
/// keeps neighbouring indices far apart in state space.
std::uint64_t mix(std::uint64_t seed, std::size_t index) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (index + 1));
}

std::size_t pick(Rng& rng, std::initializer_list<std::size_t> choices) {
  return *(choices.begin() + rng.uniform_int(choices.size()));
}

/// Keeps a fuzz config checkable in milliseconds: the point is shape
/// adversity, not arithmetic volume.
constexpr double kMaxForwardFlops = 2.0e8;
constexpr std::size_t kMaxElements = 1'500'000;

bool affordable(const ConvConfig& cfg) {
  return cfg.forward_flops() <= kMaxForwardFlops &&
         cfg.input_shape().count() <= kMaxElements &&
         cfg.output_shape().count() <= kMaxElements &&
         cfg.filter_shape().count() <= kMaxElements;
}

/// All finite (poisoned scratch read before write propagates NaN).
bool finite(const Tensor& t) {
  for (const float v : t.data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Forward tolerance matching tests/test_conv_agreement.cpp: FFT error
/// grows with the reduction size.
double forward_tolerance(const ConvConfig& cfg) {
  const double scale =
      static_cast<double>(cfg.group_channels() * cfg.kernel * cfg.kernel);
  return 1e-4 * (1.0 + scale * 0.02);
}

double filter_tolerance(const ConvConfig& cfg) {
  return forward_tolerance(cfg) *
         (1.0 + 0.05 * static_cast<double>(cfg.batch) *
                    static_cast<double>(cfg.output()));
}

void add_failure(FuzzReport& report, std::size_t index,
                 const ConvConfig& cfg, std::string what) {
  report.failures.push_back({index, cfg, std::move(what)});
}

/// The direct reference every other engine is checked against.
const conv::ConvEngine& reference_engine() {
  return conv::strategy_engine(conv::Strategy::kDirect);
}

/// The engines checked against the reference: every exact registry
/// engine, plus the full-complex spectrum path kept as the rfft
/// cross-check (the int8 engine has its own quantization-aware check).
std::vector<const conv::ConvEngine*> checked_engines() {
  static const conv::FftConv fft_complex(conv::FftConv::Spectrum::kFull);
  std::vector<const conv::ConvEngine*> engines;
  for (const conv::ConvEngine* e : conv::registry()) {
    if (e != &reference_engine() && !e->quantized()) engines.push_back(e);
  }
  engines.push_back(&fft_complex);
  return engines;
}

void check_engines(const ConvConfig& cfg, std::uint64_t seed,
                   std::size_t index, FuzzReport& report) {
  Rng rng(mix(seed, index) + 1);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng);
  Tensor grad_output(cfg.output_shape());
  grad_output.fill_uniform(rng);

  const conv::ConvEngine* direct = &reference_engine();
  Tensor ref_out(cfg.output_shape());
  Tensor ref_gin(cfg.input_shape());
  Tensor ref_gfilt(cfg.filter_shape());
  try {
    direct->forward(cfg, input, filters, ref_out);
    direct->backward_data(cfg, grad_output, filters, ref_gin);
    direct->backward_filter(cfg, input, grad_output, ref_gfilt);
  } catch (const std::exception& e) {
    add_failure(report, index, cfg,
                std::string("direct reference threw: ") + e.what());
    return;
  }
  if (!finite(ref_out) || !finite(ref_gin) || !finite(ref_gfilt)) {
    add_failure(report, index, cfg,
                "direct reference produced non-finite values");
    return;
  }

  enum class PassKind { kForward, kBackwardData, kBackwardFilter };
  struct PassCheck {
    PassKind kind;
    const char* label;
    const Tensor& reference;
    double tolerance;
  };
  const PassCheck passes[] = {
      {PassKind::kForward, "forward", ref_out, forward_tolerance(cfg)},
      {PassKind::kBackwardData, "backward_data", ref_gin,
       forward_tolerance(cfg)},
      {PassKind::kBackwardFilter, "backward_filter", ref_gfilt,
       filter_tolerance(cfg)},
  };

  for (const conv::ConvEngine* engine : checked_engines()) {
    if (!engine->supports(cfg)) {
      ++report.engine_skips;
      continue;
    }
    for (const auto& pass : passes) {
      Tensor got(pass.reference.shape());
      try {
        switch (pass.kind) {
          case PassKind::kForward:
            engine->forward(cfg, input, filters, got);
            break;
          case PassKind::kBackwardData:
            engine->backward_data(cfg, grad_output, filters, got);
            break;
          case PassKind::kBackwardFilter:
            engine->backward_filter(cfg, input, grad_output, got);
            break;
        }
      } catch (const std::exception& e) {
        add_failure(report, index, cfg,
                    std::string(engine->name()) + " " + pass.label +
                        " threw on a supported config: " + e.what());
        continue;
      }
      ++report.engine_checks;
      if (!finite(got)) {
        add_failure(report, index, cfg,
                    std::string(engine->name()) + " " + pass.label +
                        " produced non-finite values");
        continue;
      }
      const double diff = max_abs_diff(pass.reference, got);
      if (!(diff < pass.tolerance)) {
        std::ostringstream os;
        os << engine->name() << ' ' << pass.label
           << " disagrees with direct: max|diff| = " << diff
           << " (tolerance " << pass.tolerance << ')';
        add_failure(report, index, cfg, os.str());
      }
    }
  }
}

/// Non-negative and finite.
bool sane(double v) { return std::isfinite(v) && v >= 0.0; }

void check_plans(const ConvConfig& cfg, std::size_t index,
                 FuzzReport& report) {
  for (const auto id : frameworks::all_frameworks()) {
    const auto& fw = frameworks::framework(id);
    if (!fw.supports(cfg).ok) {
      ++report.plan_skips;
      continue;
    }
    const std::string who(fw.name());
    frameworks::ExecutionPlan plan;
    LayerResult result;
    try {
      plan = fw.plan(cfg);
      result = evaluate(id, cfg);
    } catch (const std::exception& e) {
      add_failure(report, index, cfg,
                  who + " plan/evaluate threw on a supported config: " +
                      e.what());
      continue;
    }
    ++report.plan_checks;
    auto fail = [&](const std::string& what) {
      add_failure(report, index, cfg, who + ": " + what);
    };

    if (plan.kernels.empty()) fail("plan has no kernels");
    for (const auto& k : plan.kernels) {
      if (k.block_threads == 0 || k.grid_blocks == 0) {
        fail("kernel '" + k.name + "' has an empty launch geometry");
      }
      if (!sane(k.flops) || !sane(k.global_load_bytes) ||
          !sane(k.global_store_bytes) || !sane(k.shared_bytes)) {
        fail("kernel '" + k.name + "' has negative or non-finite work");
      }
    }
    // Workspace accounting balances: item sizes are sane, transient
    // workspace never exceeds the peak it is part of.
    double workspace = 0.0;
    for (const auto& m : plan.memory) {
      if (!sane(m.bytes)) fail("memory item '" + m.label + "' is negative");
      if (m.workspace) workspace += m.bytes;
    }
    if (workspace != plan.workspace_bytes()) {
      fail("workspace_bytes() does not match the item sum");
    }
    if (plan.workspace_bytes() > plan.peak_bytes()) {
      fail("workspace exceeds the reported peak");
    }

    // Simulated timing invariants (non-negative, consistent shares).
    if (!sane(result.runtime_ms) || !sane(result.kernel_ms) ||
        !sane(result.transfer_ms)) {
      fail("simulated times are negative or non-finite");
    }
    if (!(result.transfer_share >= 0.0 && result.transfer_share <= 1.0)) {
      fail("transfer share outside [0, 1]");
    }
    if (!sane(result.peak_mb)) fail("peak memory is negative");
    for (const auto& [pass, ms] : result.pass_ms) {
      if (!sane(ms)) fail("per-pass time is negative or non-finite");
    }
  }
}

}  // namespace

ConvConfig fuzz_config(std::uint64_t seed, std::size_t index) {
  Rng rng(mix(seed, index));
  for (int attempt = 0; attempt < 64; ++attempt) {
    ConvConfig cfg;
    // One draw in six lands the depthwise-degenerate family
    // (groups == channels, multiplier >= 1) the DepthwiseConv engine
    // owns; the rest keeps the original grouped/ungrouped mix.
    if (pick(rng, {0, 0, 0, 0, 0, 1}) == 1) {
      cfg.groups = pick(rng, {2, 3, 4, 6, 8});
      cfg.channels = cfg.groups;
      cfg.filters = cfg.groups * pick(rng, {1, 1, 2, 3});
    } else {
      cfg.groups = pick(rng, {1, 1, 1, 1, 1, 2, 2, 3, 4});
      cfg.channels = cfg.groups * pick(rng, {1, 1, 2, 3, 5, 8});
      cfg.filters = cfg.groups * pick(rng, {1, 2, 3, 4, 8});
    }
    cfg.batch = pick(rng, {1, 1, 2, 3, 4});
    cfg.kernel = pick(rng, {1, 2, 3, 3, 3, 4, 5, 7, 9, 11});
    // Stride beyond the kernel skips input pixels entirely; stride
    // beyond the input collapses the output to one pixel per border.
    cfg.stride = pick(rng, {1, 1, 1, 1, 2, 2, 3, 4, 5});
    // pad >= kernel means whole filter taps land in the halo.
    cfg.pad = pick(rng, {0, 0, 0, 1, 2, cfg.kernel - 1, cfg.kernel,
                         cfg.kernel + 1});
    // Non-powers of two around FFT padding boundaries (17 and 33 pad to
    // 32 and 64; 63/64/65 straddle the 64 -> 128 jump), primes, and
    // inputs at or below the kernel size.
    cfg.input = pick(rng, {1, 2, 3, 5, 6, 7, 9, 11, 12, 13, 15, 16, 17, 19,
                           23, 25, 28, 31, 32, 33, 63, 64, 65});
    if (cfg.input + 2 * cfg.pad < cfg.kernel) continue;
    if (!affordable(cfg)) continue;
    return cfg;
  }
  // Statistically unreachable: 64 draws without a valid geometry. Fall
  // back to a fixed minimal config so the run stays deterministic.
  return ConvConfig{.batch = 1, .input = 8, .channels = 1, .filters = 1,
                    .kernel = 3, .stride = 1, .pad = 0, .groups = 1};
}

ConvConfig fuzz_depthwise_config(std::uint64_t seed, std::size_t index) {
  // A distinct mix offset decorrelates this sequence from fuzz_config's.
  Rng rng(mix(seed, index) ^ 0xD3E7);
  for (int attempt = 0; attempt < 64; ++attempt) {
    ConvConfig cfg;
    cfg.groups = pick(rng, {1, 2, 3, 4, 6, 8, 16, 32});
    cfg.channels = cfg.groups;
    // Multipliers > 1 weighted heavily: the filter-indexing bugs a
    // depthwise engine can have (filter f reading channel f instead of
    // f / M) only show up with a multiplier.
    cfg.filters = cfg.groups * pick(rng, {1, 2, 2, 3, 4});
    cfg.batch = pick(rng, {1, 1, 2, 3, 4});
    cfg.kernel = pick(rng, {1, 2, 3, 3, 3, 5, 7, 9});
    cfg.stride = pick(rng, {1, 1, 1, 1, 2, 2, 3, 4});
    cfg.pad = pick(rng, {0, 0, 1, 1, 2, cfg.kernel - 1, cfg.kernel,
                         cfg.kernel + 1});
    cfg.input = pick(rng, {1, 3, 5, 7, 9, 12, 15, 16, 17, 23, 28, 31, 32,
                           33, 56, 63, 64, 65});
    if (cfg.input + 2 * cfg.pad < cfg.kernel) continue;
    if (!affordable(cfg)) continue;
    return cfg;
  }
  return ConvConfig{.batch = 1, .input = 8, .channels = 4, .filters = 8,
                    .kernel = 3, .stride = 1, .pad = 1, .groups = 4};
}

ConvConfig fuzz_winograd_config(std::uint64_t seed, std::size_t index) {
  // A distinct mix offset decorrelates this sequence from the others'.
  Rng rng(mix(seed, index) ^ 0x3A9D);
  for (int attempt = 0; attempt < 64; ++attempt) {
    ConvConfig cfg;
    cfg.kernel = 3;
    cfg.stride = 1;
    cfg.groups = 1;
    // The whole supported pad range: pad 0 shrinks, pad 1 preserves,
    // pad 2 grows the map — each puts the tile overhang in a different
    // place relative to the zero halo.
    cfg.pad = pick(rng, {0, 0, 1, 1, 1, 2, 2});
    // C = 1 / F = 1 degenerates keep the per-position GEMMs rank-1;
    // larger draws exercise the blocked panels.
    cfg.channels = pick(rng, {1, 1, 2, 3, 5, 8, 16, 24});
    cfg.filters = pick(rng, {1, 1, 2, 3, 4, 8, 16, 17});
    cfg.batch = pick(rng, {1, 1, 2, 3, 4});
    // Inputs below one tile (3 < alpha for both tile sizes), odd sizes
    // whose last tile row overhangs the padded edge, and sizes whose
    // output is odd for one tile size but tile-aligned for the other.
    cfg.input = pick(rng, {3, 4, 5, 6, 7, 9, 11, 12, 13, 15, 17, 21, 23,
                           28, 31, 32, 33, 56});
    if (cfg.input + 2 * cfg.pad < cfg.kernel) continue;
    if (!affordable(cfg)) continue;
    return cfg;
  }
  return ConvConfig{.batch = 1, .input = 7, .channels = 1, .filters = 1,
                    .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
}

void check_config(const ConvConfig& cfg, std::uint64_t seed,
                  std::size_t index, FuzzReport& report) {
  check_engines(cfg, seed, index, report);
  check_plans(cfg, index, report);
  ++report.configs_run;
}

void check_fused(const ConvConfig& cfg, std::uint64_t seed,
                 std::size_t index, FuzzReport& report) {
  auto fail = [&](const std::string& what) {
    add_failure(report, index, cfg, "fused conv+bias+relu: " + what);
  };

  // Every exact engine's own epilogue: a forward with a bias, ReLU off
  // and on, against its plain forward followed by blas::add_bias and
  // the clamp.
  Rng engine_rng(mix(seed, index) + 6);
  Tensor engine_input(cfg.input_shape());
  engine_input.fill_uniform(engine_rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(engine_rng);
  std::vector<float> bias(cfg.filters);
  for (auto& b : bias) b = static_cast<float>(engine_rng.uniform(-0.5, 0.5));
  for (const conv::ConvEngine* engine : conv::registry()) {
    if (engine->quantized() || !engine->supports(cfg)) continue;
    Tensor want(cfg.output_shape());
    try {
      engine->forward(cfg, engine_input, filters, want);
    } catch (const std::exception& e) {
      fail(std::string(engine->name()) + " plain forward threw: " +
           e.what());
      continue;
    }
    blas::add_bias(want.data(), bias, cfg.batch, cfg.filters,
                   cfg.output() * cfg.output());
    for (const bool relu : {false, true}) {
      const std::string label =
          std::string(engine->name()) + (relu ? " bias+relu" : " bias");
      if (relu) {
        for (float& v : want.data()) v = v > 0.0F ? v : 0.0F;
      }
      Tensor got(cfg.output_shape());
      try {
        engine->forward(cfg, engine_input, filters, got,
                        {.bias = bias, .relu = relu});
      } catch (const std::exception& e) {
        fail(label + " threw: " + e.what());
        continue;
      }
      ++report.fused_checks;
      if (max_abs_diff(want, got) != 0.0) {
        fail(label + " is not bit-identical to forward + add_bias" +
             (relu ? " + clamp" : ""));
      }
    }
  }

  // Two layer stacks with identical parameters: fused conv+bias+ReLU vs
  // the conv -> separate ReLU reference. Identical initialisation comes
  // from reseeding the same Rng for both.
  nn::ConvLayer fused("fuzz_fused", cfg);
  fused.set_fused_relu(true);
  nn::ConvLayer plain("fuzz_plain", cfg);
  nn::ActivationLayer relu("fuzz_relu", nn::Activation::kRelu);
  {
    Rng init(mix(seed, index) + 2);
    fused.initialize(init);
  }
  {
    Rng init(mix(seed, index) + 2);
    plain.initialize(init);
  }

  Rng rng(mix(seed, index) + 3);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor grad_output(cfg.output_shape());
  grad_output.fill_uniform(rng);

  Tensor fused_out;
  Tensor plain_conv;
  Tensor plain_out;
  fused.forward(input, fused_out);
  plain.forward(input, plain_conv);
  relu.forward(plain_conv, plain_out);
  ++report.fused_checks;
  if (max_abs_diff(fused_out, plain_out) != 0.0) {
    fail("forward is not bit-identical to the unfused sequence");
    return;
  }

  Tensor fused_gin;
  fused.backward(input, grad_output, fused_gin);
  Tensor relu_gin;
  relu.backward(plain_conv, grad_output, relu_gin);
  Tensor plain_gin;
  plain.backward(input, relu_gin, plain_gin);
  if (max_abs_diff(fused_gin, plain_gin) != 0.0) {
    fail("backward grad_input differs from the unfused sequence");
  }
  const auto fused_grads = fused.gradients();
  const auto plain_grads = plain.gradients();
  if (max_abs_diff(*fused_grads[0], *plain_grads[0]) != 0.0) {
    fail("accumulated grad_weights differ from the unfused sequence");
  }
  if (max_abs_diff(*fused_grads[1], *plain_grads[1]) != 0.0) {
    fail("accumulated grad_bias differs from the unfused sequence");
  }
}

void check_int8(const ConvConfig& cfg, std::uint64_t seed,
                std::size_t index, FuzzReport& report) {
  Rng rng(mix(seed, index) + 4);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng);
  std::vector<float> bias(cfg.filters);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));

  auto fail = [&](const std::string& what) {
    add_failure(report, index, cfg, "int8 forward: " + what);
  };

  // fp32 reference: the same im2col+GEMM algorithm the int8 path
  // quantizes, so the only differences left are quantization error.
  const conv::ConvEngine* fp32 =
      &conv::strategy_engine(conv::Strategy::kUnrolling);
  Tensor ref_plain(cfg.output_shape());
  Tensor ref_fused(cfg.output_shape());
  try {
    fp32->forward(cfg, input, filters, ref_plain);
    fp32->forward(cfg, input, filters, ref_fused,
                  {.bias = bias, .relu = true});
  } catch (const std::exception& e) {
    fail(std::string("fp32 reference threw: ") + e.what());
    return;
  }

  // Quantization-aware tolerance (see the header comment).
  float act_absmax = 0.0F;
  for (const float v : input.data()) {
    act_absmax = std::max(act_absmax, std::fabs(v));
  }
  float w_absmax = 0.0F;
  for (const float v : filters.data()) {
    w_absmax = std::max(w_absmax, std::fabs(v));
  }
  const double k = static_cast<double>(cfg.group_channels()) * cfg.kernel *
                   cfg.kernel;
  const double da = 2.0 * static_cast<double>(act_absmax) / 255.0;
  const double dw = static_cast<double>(w_absmax) / 63.0;
  const double tolerance =
      k * (static_cast<double>(act_absmax) * dw / 2.0 +
           static_cast<double>(w_absmax) * da / 2.0 + da * dw / 4.0) +
      1e-5;

  const std::size_t ckk =
      cfg.group_channels() * cfg.kernel * cfg.kernel;
  const quant::QuantizedFilters qw =
      quant::quantize_filters(filters.data(), cfg.filters, ckk);
  const quant::ActQuant aq =
      quant::choose_act_quant(-act_absmax, act_absmax);

  for (const bool relu : {false, true}) {
    const std::string label =
        std::string("unrolling-int8") + (relu ? " fused" : " plain");
    const Tensor& reference = relu ? ref_fused : ref_plain;
    const std::span<const float> b =
        relu ? std::span<const float>(bias) : std::span<const float>();
    Tensor got(cfg.output_shape());
    try {
      conv::quantized_gemm_forward(cfg, input, qw, nullptr, aq, b, relu, got);
    } catch (const std::exception& e) {
      fail(label + " threw: " + e.what());
      continue;
    }
    ++report.int8_checks;
    if (!finite(got)) {
      fail(label + " produced non-finite values");
      continue;
    }
    const double diff = max_abs_diff(reference, got);
    if (!(diff < tolerance)) {
      std::ostringstream os;
      os << label << " disagrees with fp32: max|diff| = " << diff
         << " (quantization tolerance " << tolerance << ')';
      fail(os.str());
    }
  }
}

void check_prepack(const ConvConfig& cfg, std::uint64_t seed,
                   std::size_t index, FuzzReport& report) {
  Rng rng(mix(seed, index) + 5);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng);
  std::vector<float> bias(cfg.filters);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));

  auto fail = [&](const std::string& what) {
    add_failure(report, index, cfg, "prepacked forward: " + what);
  };

  // Every registry engine's own pack (engines without a prepacked path
  // build none).
  std::vector<std::shared_ptr<const conv::PackedFilters>> packs;
  for (const conv::ConvEngine* engine : conv::registry()) {
    try {
      if (auto packed = engine->prepack(cfg, filters)) {
        packs.push_back(std::move(packed));
      }
    } catch (const std::exception& e) {
      fail(std::string(engine->name()) + " prepack threw: " + e.what());
    }
  }

  // Every engine against its staged forward, with and without the fused
  // epilogue: handed its own pack it runs the same kernels (Winograd runs
  // the identical filter transform per call) with the weight panels read
  // from the cache instead of a per-call pack, and handed any other
  // engine's pack it must run staged. Either way agreement must be
  // exact, and reading its own pack must pack no weight bytes.
  const auto& packed_a = obs::metrics().counter("blas.sgemm.bytes_packed_a");
  for (const conv::ConvEngine* engine : conv::registry()) {
    if (!engine->supports(cfg)) continue;
    for (const bool relu : {false, true}) {
      const std::span<const float> b =
          relu ? std::span<const float>(bias) : std::span<const float>();
      Tensor staged(cfg.output_shape());
      try {
        engine->forward(cfg, input, filters, staged,
                        {.bias = b, .relu = relu});
      } catch (const std::exception& e) {
        fail(std::string(engine->name()) + " staged forward threw: " +
             e.what());
        continue;
      }
      for (const auto& packed : packs) {
        const bool own = packed->format == engine->name();
        // Foreign packs once each, on the fused epilogue.
        if (!own && !relu) continue;
        const std::string label =
            std::string(engine->name()) + (relu ? " fused" : " plain") +
            (own ? "" : " with a " + std::string(packed->format) + " pack");
        Tensor reused(cfg.output_shape());
        const std::int64_t packed_before = packed_a.value();
        try {
          engine->forward(cfg, input, filters, reused,
                          {.bias = b, .relu = relu, .packed = packed.get()});
        } catch (const std::exception& e) {
          fail(label + " threw: " + e.what());
          continue;
        }
        ++report.prepack_checks;
        if (own && packed_a.value() != packed_before) {
          fail(label + " re-packed its weights instead of reading its pack");
        }
        if (!finite(reused)) {
          fail(label + " produced non-finite values");
          continue;
        }
        if (max_abs_diff(staged, reused) != 0.0) {
          fail(label + " is not bit-identical to the staged forward");
        }
      }
    }
  }

  // The int8 packed forward shares every quantized step with the staged
  // one except the weight tiling, so it faces the same exact bar.
  float act_absmax = 0.0F;
  for (const float v : input.data()) {
    act_absmax = std::max(act_absmax, std::fabs(v));
  }
  const std::size_t ckk =
      cfg.group_channels() * cfg.kernel * cfg.kernel;
  const quant::QuantizedFilters qw =
      quant::quantize_filters(filters.data(), cfg.filters, ckk);
  const quant::ActQuant aq =
      quant::choose_act_quant(-act_absmax, act_absmax);
  const conv::PackedQFilters qpacked =
      conv::prepack_quantized_filters(cfg, qw);
  for (const bool relu : {false, true}) {
    const std::string label =
        std::string("unrolling-int8") + (relu ? " fused" : " plain");
    const std::span<const float> b =
        relu ? std::span<const float>(bias) : std::span<const float>();
    Tensor staged(cfg.output_shape());
    Tensor reused(cfg.output_shape());
    try {
      conv::quantized_gemm_forward(cfg, input, qw, nullptr, aq, b, relu,
                                   staged);
      conv::quantized_gemm_forward(cfg, input, qw, &qpacked, aq, b, relu,
                                   reused);
    } catch (const std::exception& e) {
      fail(label + " threw: " + e.what());
      continue;
    }
    ++report.prepack_checks;
    if (!finite(reused)) {
      fail(label + " produced non-finite values");
      continue;
    }
    if (max_abs_diff(staged, reused) != 0.0) {
      fail(label + " is not bit-identical to the staged forward");
    }
  }
}

void check_tune_roundtrip(const ConvConfig& cfg, std::size_t index,
                          FuzzReport& report, const std::string& path) {
  auto& tuner = tune::Autotuner::instance();
  const tune::Mode mode_before = tuner.mode();
  const int trials_before = tuner.set_trials_for_testing(1);
  std::string path_before = tuner.set_cache_path(path);
  tuner.set_mode(tune::Mode::kMeasure);
  // Consume the lazy first-use load (the file may hold a previous
  // config's entries), then start this round-trip from an empty memo.
  (void)tuner.load_cache(path);
  tuner.clear();

  auto fail = [&](const std::string& what) {
    add_failure(report, index, cfg, "tune cache round-trip: " + what);
  };
  constexpr tune::Pass kPasses[] = {tune::Pass::kForward,
                                    tune::Pass::kBackwardData,
                                    tune::Pass::kBackwardFilter};
  try {
    std::array<tune::Decision, 3> measured;
    for (std::size_t p = 0; p < 3; ++p) {
      measured[p] = tuner.decide(cfg, kPasses[p]);
      if (!measured[p].measured) {
        fail("measure-mode decision came back unmeasured");
      }
      // The winner is the min over candidates including the default, so
      // it can never lose to the default — the acceptance bound is 5%.
      if (measured[p].baseline_ms > 0.0 &&
          measured[p].best_ms > measured[p].baseline_ms * 1.05) {
        std::ostringstream os;
        os << tune::to_string(kPasses[p]) << " pick "
           << measured[p].engine_name << " is " << measured[p].best_ms
           << " ms vs default " << measured[p].baseline_ms << " ms";
        fail(os.str());
      }
    }
    if (!tuner.save_cache(path)) {
      fail("save_cache failed");
    } else {
      tuner.clear();
      const std::size_t kept = tuner.load_cache(path);
      if (kept != 3) {
        std::ostringstream os;
        os << "reload kept " << kept << " of 3 entries";
        fail(os.str());
      }
      for (std::size_t p = 0; p < 3; ++p) {
        const tune::Decision warm = tuner.decide(cfg, kPasses[p]);
        if (!warm.measured || warm.engine_name != measured[p].engine_name) {
          std::ostringstream os;
          os << tune::to_string(kPasses[p]) << " reloaded pick '"
             << warm.engine_name << "' != measured pick '"
             << measured[p].engine_name << '\'';
          fail(os.str());
        }
      }
    }
    ++report.tune_checks;
  } catch (const std::exception& e) {
    fail(std::string("threw: ") + e.what());
  }

  tuner.clear();
  (void)tuner.set_cache_path(std::move(path_before));
  tuner.set_trials_for_testing(trials_before);
  tuner.set_mode(mode_before);
}

std::string repro_command(std::uint64_t seed, std::size_t index,
                          bool depthwise, bool winograd) {
  std::ostringstream os;
  os << "tools/conv_fuzz --seed " << seed << " --start " << index
     << " --count 1";
  if (depthwise) os << " --depthwise";
  if (winograd) os << " --winograd";
  return os.str();
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  const bool poison_before = ws::set_poison_scratch(options.poison);
  FuzzReport report;
  const std::string tune_path = options.tune_cache_path.empty()
                                    ? std::string("fuzz_tune_cache.json")
                                    : options.tune_cache_path;
  for (std::size_t i = options.start; i < options.start + options.count;
       ++i) {
    const ConvConfig cfg =
        options.depthwise ? fuzz_depthwise_config(options.seed, i)
        : options.winograd ? fuzz_winograd_config(options.seed, i)
                           : fuzz_config(options.seed, i);
    const std::size_t failures_before = report.failures.size();
    check_config(cfg, options.seed, i, report);
    if (options.fused) check_fused(cfg, options.seed, i, report);
    if (options.int8) check_int8(cfg, options.seed, i, report);
    if (options.prepack) check_prepack(cfg, options.seed, i, report);
    if (options.tune_cache) {
      check_tune_roundtrip(cfg, i, report, tune_path);
    }
    if (options.log != nullptr) {
      *options.log << '[' << i << "] " << cfg.to_string() << " groups="
                   << cfg.groups << " pad=" << cfg.pad << " -> "
                   << (report.failures.size() == failures_before ? "ok"
                                                                 : "FAIL")
                   << '\n';
    }
  }
  ws::set_poison_scratch(poison_before);
  ws::trim();
  return report;
}

}  // namespace gpucnn::analysis
