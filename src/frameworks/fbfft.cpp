// fbfft (paper ref [25], Fig. 4(e)-right): Facebook's FFT convolution.
// Kernel structure straight from the paper's §V.A analysis: "the kernel
// decimateInFrequency uses DIF algorithm to transform input and weight
// data from spatial domain to frequency domain … the Transpose kernel is
// used to convert the BDHW layout into HWBD and then conducts Cgemm
// matrix multiplications … converts the Cgemm results back … and performs
// an inverse FFT by using decimateInFrequencyInverse".
//
// Transforms are padded to the next power of two covering i + 2p + k - 1
// (identical to conv::FftConv::transform_size), which is what produces
// both the kernel-size-independent runtime of Fig. 3(d) and the stepwise
// memory jumps of Fig. 5(b). Spectra for input (N*C), filters (F*C) and
// output (N*F, batch-tiled at 128 images) dominate memory — the paper's
// "unreasonable memory consumption". Stride must be 1 (§IV.B).
#include <algorithm>
#include <cmath>

#include "conv/fft_conv.hpp"
#include "fft/fft.hpp"
#include "frameworks/common.hpp"
#include "frameworks/impl_factory.hpp"

namespace gpucnn::frameworks::detail {
namespace {

// Real-input (Hermitian-symmetric) 2-D transform: half the complex cost.
double fft2d_flops(double s) {
  return 5.0 * s * s * std::log2(std::max(s, 2.0));
}

// Hermitian symmetry: only s*(s/2+1) frequency bins carry information.
double hermitian_bins(double s) { return s * (s / 2.0 + 1.0); }

// fbfft's tiling heuristic: a non-power-of-two input can either be padded
// up to one big power-of-two transform or covered by overlapping
// power-of-two tiles (overlap k-1, each tile yielding (T-k+1)^2 outputs).
// The planner picks whichever minimises total transform area per
// image-channel. The discrete tile-count jumps are a source of the
// paper's Fig. 5 memory fluctuations.
struct TilePlan {
  double tile_size = 0.0;   ///< transform edge length
  double tile_count = 1.0;  ///< tiles per image (nt^2)
  /// Total transform area per 2-D plane.
  [[nodiscard]] double area() const {
    return tile_count * tile_size * tile_size;
  }
};

TilePlan fbfft_tile_plan(const ConvConfig& cfg) {
  const double span = static_cast<double>(cfg.input + 2 * cfg.pad);
  const double k = static_cast<double>(cfg.kernel);
  const double out_span = span - k + 1.0;

  TilePlan best;
  best.tile_size =
      static_cast<double>(fft::next_pow2(cfg.input + 2 * cfg.pad));
  best.tile_count = 1.0;
  for (double t = 32.0; t < best.tile_size; t *= 2.0) {
    if (t < 2.0 * k) continue;  // overlap would dominate
    const double stride = t - k + 1.0;
    const double nt = std::ceil(out_span / stride);
    TilePlan candidate{t, nt * nt};
    if (candidate.area() < best.area()) best = candidate;
  }
  return best;
}

gpusim::KernelProfile fbfft_transform(double s, double transforms,
                                      bool inverse) {
  gpusim::KernelProfile k;
  k.name = inverse ? "decimateInFrequencyInverse" : "decimateInFrequency";
  k.kind = inverse ? gpusim::KernelClass::kFftInverse
                   : gpusim::KernelClass::kFft;
  k.block_threads = 128;
  k.regs_per_thread = 106;  // Table II
  k.smem_per_block = 10 * 1024;
  k.grid_blocks = grid_for(transforms * s, k.block_threads);
  k.flops = transforms * fft2d_flops(s);
  // The butterflies run in registers/shared memory (fbfft's design
  // point); DRAM sees each Hermitian-packed grid once in, once out.
  k.global_load_bytes = transforms * hermitian_bins(s) * 8.0;
  k.global_store_bytes = transforms * hermitian_bins(s) * 8.0;
  k.gld_efficiency = 0.50;
  k.gst_efficiency = 0.70;
  k.gld_dram_factor = 1.0;
  k.gst_dram_factor = 1.0;
  k.shared_bytes = k.flops * 0.4;
  k.shared_efficiency = 0.95;
  k.warp_exec_efficiency = 0.97;
  k.compute_efficiency = 0.33;
  k.achieved_occupancy_factor = 0.80;
  k.occupancy_needed = 0.15;
  return k;
}

gpusim::KernelProfile fbfft_transpose(double spectra_bytes,
                                      const char* pass) {
  gpusim::KernelProfile k;
  // Part of the layout conversion is fused into the FFT kernels' load/
  // store stages; the standalone Transpose kernel moves the remainder.
  spectra_bytes *= 0.75;
  k.name = std::string("Transpose.") + pass;
  k.kind = gpusim::KernelClass::kTranspose;
  k.block_threads = 256;
  k.regs_per_thread = 28;
  k.smem_per_block = 12 * 1024;  // staging tile
  k.grid_blocks = grid_for(spectra_bytes / 8.0, k.block_threads);
  k.global_load_bytes = spectra_bytes;
  k.global_store_bytes = spectra_bytes;
  k.gld_efficiency = 0.85;  // tiled transpose coalesces both sides
  k.gst_efficiency = 0.85;
  k.gld_dram_factor = 1.05;
  k.gst_dram_factor = 1.15;
  k.shared_bytes = spectra_bytes * 2.0;
  k.shared_efficiency = 0.94;  // padded tiles avoid most conflicts
  k.warp_exec_efficiency = 0.99;
  k.compute_efficiency = 0.5;
  k.achieved_occupancy_factor = 0.70;
  k.occupancy_needed = 0.30;
  return k;
}

// Zero-padding / layout kernel preparing the real buffers of one pass.
gpusim::KernelProfile fbfft_pad(const ConvConfig& cfg, const char* pass) {
  gpusim::KernelProfile k;
  k.name = std::string("padAlongDim.") + pass;
  k.kind = gpusim::KernelClass::kPointwise;
  k.block_threads = 256;
  k.regs_per_thread = 20;
  const double bytes = (input_bytes(cfg) + output_bytes(cfg)) * 0.5;
  k.grid_blocks = grid_for(bytes / kFloatBytes, k.block_threads);
  k.global_load_bytes = bytes;
  k.global_store_bytes = bytes;
  k.gld_efficiency = 0.80;
  k.gst_efficiency = 0.80;
  k.gld_dram_factor = 1.0;
  k.gst_dram_factor = 1.0;
  k.shared_efficiency = 1.0;
  k.warp_exec_efficiency = 0.99;
  k.compute_efficiency = 0.5;
  k.achieved_occupancy_factor = 0.70;
  k.occupancy_needed = 0.30;
  return k;
}

gpusim::KernelProfile fbfft_cgemm(const ConvConfig& cfg, double s,
                                  double tile_count) {
  gpusim::KernelProfile k;
  k.name = "Cgemm";
  k.kind = gpusim::KernelClass::kGemm;
  k.block_threads = 256;
  k.regs_per_thread = 90;
  k.smem_per_block = 8 * 1024;
  const double bins = hermitian_bins(s) * tile_count;
  k.grid_blocks = grid_for(bins, 4);
  // One small complex GEMM per informative frequency bin, per pass.
  k.flops = bins * 8.0 * static_cast<double>(cfg.batch) *
            static_cast<double>(cfg.channels) *
            static_cast<double>(cfg.filters);
  const double operand =
      bins * 8.0 *
      (static_cast<double>(cfg.batch) * static_cast<double>(cfg.channels) +
       static_cast<double>(cfg.filters) *
           static_cast<double>(cfg.channels));
  k.global_load_bytes = operand;
  k.global_store_bytes = bins * 8.0 * static_cast<double>(cfg.batch) *
                         static_cast<double>(cfg.filters);
  k.gld_dram_factor = 1.1;
  k.gst_dram_factor = 1.1;
  k.gld_efficiency = 0.60;
  k.gst_efficiency = 0.75;
  k.shared_bytes = k.flops * 0.4;
  k.shared_efficiency = 1.05;
  k.warp_exec_efficiency = 0.98;
  k.compute_efficiency = 0.50;
  k.achieved_occupancy_factor = 0.80;
  k.occupancy_needed = 0.16;
  return k;
}

class Fbfft final : public Framework {
 public:
  [[nodiscard]] FrameworkId id() const override {
    return FrameworkId::kFbfft;
  }
  [[nodiscard]] conv::Strategy strategy() const override {
    return conv::Strategy::kFft;
  }

  [[nodiscard]] ShapeSupport supports(const ConvConfig& cfg) const override {
    if (cfg.stride != 1) return {false, "FFT convolution requires stride 1"};
    if (cfg.groups != 1) {
      return {false, "FFT convolution does not support filter groups"};
    }
    if (cfg.kernel > cfg.input + 2 * cfg.pad) {
      return {false, "kernel larger than padded input"};
    }
    return {};
  }

  [[nodiscard]] ExecutionPlan plan(const ConvConfig& cfg) const override {
    const PlanScope obs_scope("fbfft");
    const auto support = supports(cfg);
    check(support.ok, "fbfft: " + support.reason);
    const TilePlan tiles = fbfft_tile_plan(cfg);
    const double s = tiles.tile_size;
    const double nc = static_cast<double>(cfg.batch * cfg.channels);
    const double fc = static_cast<double>(cfg.filters * cfg.channels);
    const double nf = static_cast<double>(cfg.batch * cfg.filters);
    // Transposed (frequency-major) data is Hermitian-packed.
    const double packed_bin_bytes =
        tiles.tile_count * hermitian_bins(s) * 8.0;

    ExecutionPlan plan;
    // Three passes: fwd (in+filt -> out), bwd-data (gout+filt -> gin),
    // bwd-filter (in+gout -> gw). Each: forward FFTs, transpose in,
    // Cgemm, transpose out, inverse FFT.
    const struct {
      const char* pass;
      double fwd_transforms;
      double inv_transforms;
    } passes[] = {
        {"fwd", nc + fc, nf},
        {"bwd_data", nf + fc, nc},
        {"bwd_filter", nc + nf, fc},
    };
    for (const auto& p : passes) {
      const gpusim::Pass pass = pass_from_label(p.pass);
      plan.kernels.push_back(tagged(fbfft_pad(cfg, p.pass), pass));
      plan.kernels.push_back(tagged(
          fbfft_transform(s, p.fwd_transforms * tiles.tile_count, false),
          pass));
      plan.kernels.push_back(tagged(
          fbfft_transpose(p.fwd_transforms * packed_bin_bytes, p.pass),
          pass));
      plan.kernels.push_back(
          tagged(fbfft_cgemm(cfg, s, tiles.tile_count), pass));
      plan.kernels.push_back(tagged(
          fbfft_transpose(p.inv_transforms * packed_bin_bytes, p.pass),
          pass));
      plan.kernels.push_back(tagged(
          fbfft_transform(s, p.inv_transforms * tiles.tile_count, true),
          pass));
    }

    add_activation_memory(plan, cfg, /*with_gradient_buffers=*/false,
                          150.0, "fbfft");
    // Frequency-domain workspace: Hermitian-packed S x (S/2+1) spectra
    // for the input, filter and output planes, held four ways — the
    // image-major (BDHW) and transposed frequency-major (HWBD) layouts,
    // each double-buffered so transpose and Cgemm stages can overlap.
    // This is the paper's "unreasonable memory consumption": packing
    // halves each grid, but fbfft spends the savings on layout copies.
    plan.memory.push_back({"fbfft:spectra",
                           4.0 * (nc + fc + nf) * tiles.tile_count *
                               hermitian_bins(s) * 8.0,
                           /*workspace=*/true});
    plan.memory.push_back(
        {"fbfft:transpose-staging", 256.0 * 1048576.0, /*workspace=*/true});

    add_batch_transfers(plan, cfg, /*pinned=*/true, /*overlap=*/0.97);
    return plan;
  }

  [[nodiscard]] const conv::ConvEngine& engine() const override {
    return conv::strategy_engine(conv::Strategy::kFft);
  }
  [[nodiscard]] std::size_t table2_registers() const override {
    return 106;
  }
  [[nodiscard]] double table2_smem_kb() const override { return 10.0; }
};

}  // namespace

std::unique_ptr<Framework> make_fbfft() { return std::make_unique<Fbfft>(); }

}  // namespace gpucnn::frameworks::detail
