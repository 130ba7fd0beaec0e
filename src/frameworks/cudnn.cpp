// cuDNN v3 (paper ref [24], Fig. 4(d)): implicit-GEMM convolution. The
// unrolling and the multiply are fused — "the unrolling operations and
// matrix-matrix multiplications are optimized by using shared memory and
// tiled matrix multiplication", so no im2col/col2im traffic appears and
// the dominant kernels (cuDNN_gemm, wgrad_alg0_engine) run almost
// entirely out of shared memory (the paper measures ~0% global access
// efficiency for them, and >130% shared efficiency from broadcasts).
//
// Its fixed-tile kernels lose steam as the filter count grows (redundant
// halo recompute per tile), which is what lets Theano-CorrMM's plain
// cuBLAS edge past it above ~160 filters (Fig. 3(c)).
#include <algorithm>
#include <atomic>
#include <cmath>

#include "frameworks/common.hpp"
#include "frameworks/impl_factory.hpp"

namespace gpucnn::frameworks::detail {
namespace {

// Default off: the paper profiles cuDNN v3, whose implicit GEMM predates
// the winograd algorithms. set_cudnn_winograd_plan(true) models the later
// winograd dispatch on eligible shapes.
std::atomic<bool> g_winograd_plan{false};

// Implicit-GEMM sustained fraction of peak: 0.66 at the base shape,
// decaying once the filter dimension spills past the tile plan.
double cudnn_efficiency(const ConvConfig& cfg) {
  const double f = static_cast<double>(cfg.filters);
  const double decay = std::clamp((f - 64.0) / 192.0, 0.0, 0.60);
  return 0.66 * (1.0 - 0.55 * decay);
}

gpusim::KernelProfile cudnn_main_kernel(const ConvConfig& cfg,
                                        const char* name,
                                        const GemmDims& dims,
                                        double extra_flops_factor) {
  gpusim::KernelProfile k;
  k.name = name;
  k.kind = gpusim::KernelClass::kGemm;
  k.block_threads = 256;
  k.regs_per_thread = 80;  // Table II
  k.smem_per_block = static_cast<std::size_t>(8.4 * 1024);
  k.grid_blocks = grid_for(static_cast<double>(cfg.batch) *
                               static_cast<double>(dims.m) *
                               static_cast<double>(dims.n) / 16.0,
                           k.block_threads);
  k.flops = conv_pass_flops(cfg) * extra_flops_factor;
  // Operands are staged once through read-only cache into shared memory;
  // the result is the only significant store.
  k.global_load_bytes = input_bytes(cfg) + filter_bytes(cfg);
  k.global_store_bytes =
      static_cast<double>(cfg.batch) * static_cast<double>(dims.m) *
      static_cast<double>(dims.n) * kFloatBytes;
  // The fused kernels compute out of shared memory; nvprof sees almost
  // no global transactions (the paper reports ~0% for these kernels).
  k.gld_efficiency = 0.02;
  k.gst_efficiency = 0.40;
  k.gld_dram_factor = 1.15;
  k.gst_dram_factor = 1.10;
  k.shared_bytes = k.flops * 0.5;
  k.shared_efficiency = 1.32;  // broadcast-heavy tiles (paper: >130%)
  k.warp_exec_efficiency = 0.99;
  k.compute_efficiency = cudnn_efficiency(cfg) * gemm_utilization(dims);
  k.achieved_occupancy_factor = 0.88;
  k.occupancy_needed = 0.16;
  return k;
}

// Small preparatory kernels (offset tables, tensor transforms); these
// carry cuDNN's low measured global efficiency.
gpusim::KernelProfile cudnn_precompute(const ConvConfig& cfg,
                                       const char* name) {
  gpusim::KernelProfile k;
  k.name = name;
  k.kind = gpusim::KernelClass::kPrecompute;
  k.block_threads = 128;
  k.regs_per_thread = 24;
  k.smem_per_block = 0;
  const double bytes = (input_bytes(cfg) + output_bytes(cfg)) * 0.12;
  k.grid_blocks = grid_for(bytes / kFloatBytes, k.block_threads);
  k.global_load_bytes = bytes;
  k.global_store_bytes = bytes;
  k.gld_efficiency = 0.14;
  k.gst_efficiency = 0.40;
  k.shared_efficiency = 1.0;
  k.warp_exec_efficiency = 0.97;
  k.compute_efficiency = 0.5;
  k.achieved_occupancy_factor = 0.85;
  k.occupancy_needed = 0.30;
  return k;
}

// Depthwise (groups == channels) shapes: cuDNN dispatches a dedicated
// per-channel kernel instead of implicit GEMM. With only k*k MACs per
// output element there is no reduction to tile, so the kernel is
// memory-bound: it streams input + filters in and output out with
// near-unit coalescing and touches no shared memory.
gpusim::KernelProfile cudnn_depthwise_kernel(const ConvConfig& cfg,
                                             const char* name) {
  gpusim::KernelProfile k;
  k.name = name;
  k.kind = gpusim::KernelClass::kDepthwise;
  k.block_threads = 256;
  k.regs_per_thread = 40;
  k.smem_per_block = 0;
  const auto o = static_cast<double>(cfg.output());
  k.grid_blocks = grid_for(static_cast<double>(cfg.batch) *
                               static_cast<double>(cfg.filters) * o * o,
                           k.block_threads);
  k.flops = conv_pass_flops(cfg);  // group-aware: 2*N*F*o^2*k^2
  k.global_load_bytes = input_bytes(cfg) + filter_bytes(cfg);
  k.global_store_bytes = output_bytes(cfg);
  // One thread per output pixel walking a contiguous row window:
  // coalesced apart from the halo columns.
  k.gld_efficiency = 0.85;
  k.gst_efficiency = 0.90;
  k.gld_dram_factor = 1.05;
  k.gst_dram_factor = 1.05;
  k.shared_bytes = 0.0;
  k.shared_efficiency = 1.0;
  k.warp_exec_efficiency = 0.97;
  k.compute_efficiency = 0.45;  // latency-bound at k*k MACs per element
  k.achieved_occupancy_factor = 0.90;
  k.occupancy_needed = 0.25;    // no ILP from a reduction loop
  return k;
}

// Winograd F(4x4,3x3) dispatch (cuDNN's later winograd/winogradNonfused
// algorithms): 4x4 output tiles become 6x6 spectral planes and the
// convolution collapses to 36 tile-position GEMMs — 36 multiplies where
// the direct form spends 144 MACs per tile, a 4x arithmetic reduction.
// The GEMM operands are dense SoA planes, so unlike the implicit-GEMM
// kernels these stream global memory with near-unit coalescing.
//
// Transform kernels (input/filter scatter, inverse gather): memory-bound
// streamers whose loads walk strided 6x6 tile windows but whose stores
// hit contiguous per-position planes.
gpusim::KernelProfile cudnn_winograd_transform(const char* name,
                                               double load_bytes,
                                               double store_bytes) {
  gpusim::KernelProfile k;
  k.name = name;
  k.kind = gpusim::KernelClass::kPrecompute;
  k.block_threads = 256;
  k.regs_per_thread = 48;
  k.smem_per_block = 0;
  k.grid_blocks =
      grid_for((load_bytes + store_bytes) / kFloatBytes, k.block_threads);
  k.global_load_bytes = load_bytes;
  k.global_store_bytes = store_bytes;
  k.gld_efficiency = 0.55;  // strided tile-window gathers with halos
  k.gst_efficiency = 0.90;  // SoA spectral planes write coalesced
  k.shared_efficiency = 1.0;
  k.warp_exec_efficiency = 0.95;
  k.compute_efficiency = 0.5;
  k.achieved_occupancy_factor = 0.85;
  k.occupancy_needed = 0.25;
  return k;
}

// The batched multiply: one m x n x kk GEMM per tile position, 36
// positions per launch.
gpusim::KernelProfile cudnn_winograd_gemm(const char* name, double m,
                                          double n, double kk) {
  constexpr double kPositions = 36.0;  // 6x6 points of F(4x4,3x3)
  gpusim::KernelProfile k;
  k.name = name;
  k.kind = gpusim::KernelClass::kWinograd;
  k.block_threads = 256;
  k.regs_per_thread = 72;
  k.smem_per_block = static_cast<std::size_t>(16 * 1024);
  k.grid_blocks = grid_for(kPositions * m * n / 16.0, k.block_threads);
  k.flops = 2.0 * kPositions * m * n * kk;
  k.global_load_bytes = kPositions * (m * kk + kk * n) * kFloatBytes;
  k.global_store_bytes = kPositions * m * n * kFloatBytes;
  k.gld_efficiency = 0.80;  // dense per-position panels, unit stride
  k.gst_efficiency = 0.85;
  k.gld_dram_factor = 1.10;
  k.gst_dram_factor = 1.05;
  k.shared_bytes = k.flops * 0.5;
  k.shared_efficiency = 1.25;  // broadcast-heavy GEMM tiles
  k.warp_exec_efficiency = 0.99;
  const GemmDims dims{static_cast<std::size_t>(m),
                      static_cast<std::size_t>(n),
                      static_cast<std::size_t>(kk)};
  k.compute_efficiency = 0.60 * gemm_utilization(dims);
  k.achieved_occupancy_factor = 0.88;
  k.occupancy_needed = 0.20;
  return k;
}

class Cudnn final : public Framework {
 public:
  [[nodiscard]] FrameworkId id() const override {
    return FrameworkId::kCudnn;
  }
  [[nodiscard]] conv::Strategy strategy() const override {
    return conv::Strategy::kUnrolling;
  }
  [[nodiscard]] ShapeSupport supports(const ConvConfig&) const override {
    return {};
  }

  [[nodiscard]] ExecutionPlan plan(const ConvConfig& cfg) const override {
    const PlanScope obs_scope("cudnn");
    ExecutionPlan plan;
    if (cfg.groups == cfg.channels && cfg.groups > 1) {
      // Depthwise path: no im2col identity to exploit, no pre-transforms,
      // no algorithm workspace — three memory-bound streaming kernels.
      plan.kernels.push_back(tagged(
          cudnn_depthwise_kernel(cfg, "cuDNN_depthwise.fwd"),
          gpusim::Pass::kForward));
      plan.kernels.push_back(tagged(
          cudnn_depthwise_kernel(cfg, "cuDNN_depthwise.bwd_data"),
          gpusim::Pass::kBackwardData));
      plan.kernels.push_back(tagged(
          cudnn_depthwise_kernel(cfg, "cuDNN_depthwise.bwd_filter"),
          gpusim::Pass::kBackwardFilter));
      add_activation_memory(plan, cfg, /*with_gradient_buffers=*/true,
                            120.0, "cudnn");
      add_batch_transfers(plan, cfg, /*pinned=*/true, /*overlap=*/0.98);
      return plan;
    }
    if (g_winograd_plan.load(std::memory_order_relaxed) &&
        cfg.kernel == 3 && cfg.stride == 1 && cfg.groups == 1 &&
        cfg.pad <= 2) {
      // Winograd path: per-pass (scatter transform, 36-position batched
      // GEMM, inverse gather). U/V/M spectral planes live in workspace.
      const double o = static_cast<double>(cfg.output());
      const double t1 = std::ceil(o / 4.0);  // 4x4 output tiles per row
      const double p = static_cast<double>(cfg.batch) * t1 * t1;
      const double c = static_cast<double>(cfg.channels);
      const double f = static_cast<double>(cfg.filters);
      constexpr double kPositions = 36.0;
      const double u_bytes = kPositions * f * c * kFloatBytes;
      const double v_bytes = kPositions * c * p * kFloatBytes;
      const double m_bytes = kPositions * f * p * kFloatBytes;
      plan.kernels.push_back(tagged(
          cudnn_winograd_transform("winograd_transform.fwd",
                                   input_bytes(cfg) + filter_bytes(cfg),
                                   u_bytes + v_bytes),
          gpusim::Pass::kForward));
      plan.kernels.push_back(tagged(
          cudnn_winograd_gemm("winograd_gemm.fwd", f, p, c),
          gpusim::Pass::kForward));
      plan.kernels.push_back(tagged(
          cudnn_winograd_transform("winograd_output.fwd", m_bytes,
                                   output_bytes(cfg)),
          gpusim::Pass::kForward));
      // Backward-data is the forward on rotated filters; dY scatters in
      // place of the input.
      plan.kernels.push_back(tagged(
          cudnn_winograd_transform("winograd_transform.bwd_data",
                                   output_bytes(cfg) + filter_bytes(cfg),
                                   u_bytes + m_bytes),
          gpusim::Pass::kBackwardData));
      plan.kernels.push_back(tagged(
          cudnn_winograd_gemm("winograd_gemm.bwd_data", c, p, f),
          gpusim::Pass::kBackwardData));
      plan.kernels.push_back(tagged(
          cudnn_winograd_transform("winograd_output.bwd_data", v_bytes,
                                   input_bytes(cfg)),
          gpusim::Pass::kBackwardData));
      // Backward-filter: dU_t = dM_t * V_t^T, gathered back through the
      // filter-transform adjoint.
      plan.kernels.push_back(tagged(
          cudnn_winograd_transform("winograd_transform.bwd_filter",
                                   input_bytes(cfg) + output_bytes(cfg),
                                   v_bytes + m_bytes),
          gpusim::Pass::kBackwardFilter));
      plan.kernels.push_back(tagged(
          cudnn_winograd_gemm("winograd_gemm.bwd_filter", f, c, p),
          gpusim::Pass::kBackwardFilter));
      plan.kernels.push_back(tagged(
          cudnn_winograd_transform("winograd_output.bwd_filter", u_bytes,
                                   filter_bytes(cfg)),
          gpusim::Pass::kBackwardFilter));
      add_activation_memory(plan, cfg, /*with_gradient_buffers=*/true,
                            120.0, "cudnn");
      plan.memory.push_back({"cudnn:winograd-workspace",
                             u_bytes + v_bytes + m_bytes,
                             /*workspace=*/true});
      add_batch_transfers(plan, cfg, /*pinned=*/true, /*overlap=*/0.98);
      return plan;
    }
    plan.kernels.push_back(tagged(
        cudnn_precompute(cfg, "cudnn_transform.fwd"),
        gpusim::Pass::kForward));
    plan.kernels.push_back(tagged(
        cudnn_main_kernel(cfg, "cuDNN_gemm.fwd", forward_gemm(cfg), 1.0),
        gpusim::Pass::kForward));
    plan.kernels.push_back(tagged(
        cudnn_main_kernel(cfg, "cuDNN_gemm.bwd_data",
                          backward_data_gemm(cfg), 1.0),
        gpusim::Pass::kBackwardData));
    plan.kernels.push_back(tagged(
        cudnn_precompute(cfg, "cudnn_transform.bwd"),
        gpusim::Pass::kBackwardData));
    // wgrad alg0 recomputes tile halos: ~15% extra arithmetic.
    plan.kernels.push_back(tagged(
        cudnn_main_kernel(cfg, "wgrad_alg0_engine",
                          backward_filter_gemm(cfg), 1.15),
        gpusim::Pass::kBackwardFilter));

    // Runs inside Caffe in the paper's setup: diff blobs + prefetching.
    add_activation_memory(plan, cfg, /*with_gradient_buffers=*/true, 120.0,
                          "cudnn");
    plan.memory.push_back({"cudnn:algo-workspace",
                           2.0 * col_image_bytes(cfg), /*workspace=*/true});
    add_batch_transfers(plan, cfg, /*pinned=*/true, /*overlap=*/0.98);
    return plan;
  }

  [[nodiscard]] const conv::ConvEngine& engine() const override {
    return conv::strategy_engine(conv::Strategy::kUnrolling);
  }
  [[nodiscard]] std::size_t table2_registers() const override { return 80; }
  [[nodiscard]] double table2_smem_kb() const override { return 8.4; }
};

}  // namespace

std::unique_ptr<Framework> make_cudnn() { return std::make_unique<Cudnn>(); }

}  // namespace gpucnn::frameworks::detail

namespace gpucnn::frameworks {

bool set_cudnn_winograd_plan(bool enabled) {
  return detail::g_winograd_plan.exchange(enabled,
                                          std::memory_order_relaxed);
}

}  // namespace gpucnn::frameworks
