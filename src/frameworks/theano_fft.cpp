// Theano-fft (paper ref [19]): conv2d_fft, FFT convolution built from
// cuFFT plans plus Theano-generated elementwise/batched-dot kernels. The
// paper's profile of it is bleak on every axis, and each deficiency is
// encoded structurally here:
//   * kernels use almost no registers or shared memory (Table II: 2 regs,
//     4.5 KB) — occupancy is high (39–59%) but useless;
//   * heavy bank conflicts (shared efficiency 8–20%) and divergent
//     control flow (WEE 66–81%) serialise the inner loops;
//   * "most of the runtime is spent on data preparation and data
//     transfer between CPU and GPU" (§V.A) — Theano stages the padded
//     arrays through host memory every iteration;
//   * cuFFT pads to the exact linear-convolution size i + 2p + k - 1; when
//     that length contains a large prime factor, cuFFT falls back to a
//     Bluestein plan with roughly doubled workspace — the non-monotonic
//     memory spikes of Fig. 5(b, d).
// Stride must be 1 (§IV.B).
#include <algorithm>
#include <cmath>

#include "frameworks/common.hpp"
#include "frameworks/impl_factory.hpp"

namespace gpucnn::frameworks::detail {
namespace {

std::size_t largest_prime_factor(std::size_t n) {
  std::size_t largest = 1;
  for (std::size_t p = 2; p * p <= n; ++p) {
    while (n % p == 0) {
      largest = p;
      n /= p;
    }
  }
  return std::max(largest, n);
}

/// cuFFT transform length: exact linear-convolution size, padded to even.
std::size_t cufft_size(const ConvConfig& cfg) {
  const std::size_t t = cfg.input + 2 * cfg.pad + cfg.kernel - 1;
  return t + (t % 2);
}

/// Bluestein fallback multiplier for awkward lengths.
double plan_overhead(std::size_t t) {
  return largest_prime_factor(t) > 13 ? 2.0 : 1.0;
}

double fft2d_flops(double t) {
  return 10.0 * t * t * std::log2(std::max(t, 2.0));
}

gpusim::KernelProfile theano_fft_kernel(double t, double transforms,
                                        bool inverse,
                                        double plan_factor) {
  gpusim::KernelProfile k;
  k.name = inverse ? "cufft_inverse_c2r" : "cufft_forward_r2c";
  k.kind = inverse ? gpusim::KernelClass::kFftInverse
                   : gpusim::KernelClass::kFft;
  k.block_threads = 128;
  k.regs_per_thread = 2;  // Table II: almost everything lives in gmem
  k.smem_per_block = static_cast<std::size_t>(4.5 * 1024);
  k.grid_blocks = grid_for(transforms * t, k.block_threads);
  k.flops = transforms * fft2d_flops(t) * plan_factor;
  // cuFFT fuses a few butterfly stages per kernel; the inter-stage data
  // still round-trips global memory a couple of times per transform.
  k.global_load_bytes = transforms * t * t * 8.0 * 1.5;
  k.global_store_bytes = k.global_load_bytes;
  k.gld_efficiency = 0.18;
  k.gst_efficiency = 0.35;
  // Within a stage everything funnels through conflicted shared memory —
  // the paper's "bank conflicts are the primary concern" for Theano-fft.
  k.shared_bytes = k.flops * 1.1;
  k.shared_efficiency = 0.14;  // the paper's 8–20% band
  // Divergence varies with the mix of radix stages for this length.
  k.warp_exec_efficiency =
      0.66 + 0.15 * std::fmod(t, 32.0) / 32.0;
  k.compute_efficiency = 0.10;
  k.achieved_occupancy_factor = 0.78;  // high occupancy, little use
  k.occupancy_needed = 0.35;
  return k;
}

gpusim::KernelProfile theano_batched_dot(const ConvConfig& cfg, double t) {
  gpusim::KernelProfile k;
  k.name = "theano_batched_complex_dot";
  k.kind = gpusim::KernelClass::kGemm;
  k.block_threads = 128;
  k.regs_per_thread = 2;
  k.smem_per_block = static_cast<std::size_t>(4.5 * 1024);
  k.grid_blocks = grid_for(t * t, 2);
  k.flops = t * t * 8.0 * static_cast<double>(cfg.batch) *
            static_cast<double>(cfg.channels) *
            static_cast<double>(cfg.filters);
  const double spectra =
      t * t * 8.0 *
      (static_cast<double>(cfg.batch * cfg.channels) +
       static_cast<double>(cfg.filters * cfg.channels) +
       static_cast<double>(cfg.batch * cfg.filters));
  k.global_load_bytes = spectra;
  k.global_store_bytes = spectra * 0.3;
  k.gld_efficiency = 0.20;
  k.gst_efficiency = 0.40;
  k.shared_bytes = k.flops * 0.3;
  k.shared_efficiency = 0.14;
  k.warp_exec_efficiency = 0.75;
  k.compute_efficiency = 0.12;
  k.achieved_occupancy_factor = 0.78;
  k.occupancy_needed = 0.35;
  return k;
}

class TheanoFft final : public Framework {
 public:
  [[nodiscard]] FrameworkId id() const override {
    return FrameworkId::kTheanoFft;
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
    const PlanScope obs_scope("theano-fft");
    const auto support = supports(cfg);
    check(support.ok, "theano-fft: " + support.reason);
    const auto t_int = cufft_size(cfg);
    const double t = static_cast<double>(t_int);
    const double plan_factor = plan_overhead(t_int);
    const double nc = static_cast<double>(cfg.batch * cfg.channels);
    const double fc = static_cast<double>(cfg.filters * cfg.channels);
    const double nf = static_cast<double>(cfg.batch * cfg.filters);

    ExecutionPlan plan;
    const struct {
      gpusim::Pass pass;
      double fwd_transforms;
      double inv_transforms;
    } passes[] = {
        {gpusim::Pass::kForward, nc + fc, nf},
        {gpusim::Pass::kBackwardData, nf + fc, nc},
        {gpusim::Pass::kBackwardFilter, nc + nf, fc}};
    for (const auto& p : passes) {
      plan.kernels.push_back(tagged(
          theano_fft_kernel(t, p.fwd_transforms, false, plan_factor),
          p.pass));
      plan.kernels.push_back(tagged(theano_batched_dot(cfg, t), p.pass));
      plan.kernels.push_back(tagged(
          theano_fft_kernel(t, p.inv_transforms, true, plan_factor),
          p.pass));
    }

    add_activation_memory(plan, cfg, /*with_gradient_buffers=*/true, 115.0,
                          "theano-fft");
    // Bluestein fallback scratch applies to the transform working set,
    // not the whole spectra store.
    const double spectra_bytes = (nc + fc + nf) * t * t * 8.0;
    plan.memory.push_back({"theano-fft:spectra",
                           spectra_bytes * (1.0 + (plan_factor - 1.0) * 0.5),
                           /*workspace=*/true});

    // Host-side data preparation: padded arrays are assembled on the CPU
    // and shipped over per iteration (pageable, unoverlapped).
    const double prep_bytes = (nc + fc) * t * t * kFloatBytes;
    plan.transfers.push_back({"padded arrays h2d",
                              gpusim::TransferDirection::kHostToDevice,
                              prep_bytes, false, 0.0});
    plan.transfers.push_back({"host zero-pad memcpy",
                              gpusim::TransferDirection::kHostToDevice,
                              prep_bytes * 0.6, false, 0.0});
    add_batch_transfers(plan, cfg, /*pinned=*/false, /*overlap=*/0.0);
    return plan;
  }

  [[nodiscard]] const conv::ConvEngine& engine() const override {
    return conv::strategy_engine(conv::Strategy::kFft);
  }
  [[nodiscard]] std::size_t table2_registers() const override { return 2; }
  [[nodiscard]] double table2_smem_kb() const override { return 4.5; }
};

}  // namespace

std::unique_ptr<Framework> make_theano_fft() {
  return std::make_unique<TheanoFft>();
}

}  // namespace gpucnn::frameworks::detail
