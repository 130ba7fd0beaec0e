// cuda-convnet2 (paper ref [18], Fig. 4(e)-left): direct convolution via
// three hand-written kernel families — filterActs (forward),
// img_acts (backward data) and weight_acts (backward filter). It needs no
// workspace at all ("computes the convolution directly and thus does not
// need temporary memory", §V.B) which makes it the most memory-efficient
// implementation, but its 116 registers/thread cap theoretical occupancy
// near 25% (the paper derives 17 active warps) and its batch loop is
// hard-tuned for multiples of 128 images.
//
// Shape limits (paper §IV.B): square input and kernel only (our configs
// are always square), mini-batch % 32 == 0, filters % 16 == 0.
#include <algorithm>

#include "frameworks/common.hpp"
#include "frameworks/impl_factory.hpp"

namespace gpucnn::frameworks::detail {
namespace {

// The batch loop processes 128-image blocks at full throughput; other
// 32-multiples fall off the fast path.
double convnet2_efficiency(const ConvConfig& cfg) {
  const double base = 0.48;
  return cfg.batch % 128 == 0 ? base : base * 0.85;
}

gpusim::KernelProfile convnet2_kernel(const ConvConfig& cfg,
                                      const char* name) {
  gpusim::KernelProfile k;
  k.name = name;
  k.kind = gpusim::KernelClass::kDirectConv;
  k.block_threads = 128;
  k.regs_per_thread = 116;  // Table II; yields the paper's ~25% ceiling
  k.smem_per_block = 16 * 1024;
  k.grid_blocks = grid_for(
      static_cast<double>(cfg.output_shape().count()) / 4.0,
      k.block_threads);
  k.flops = conv_pass_flops(cfg);
  // Direct convolution re-reads input windows from global/texture; the
  // traffic is higher than GEMM staging but access is well coalesced.
  k.global_load_bytes =
      input_bytes(cfg) * static_cast<double>(cfg.kernel) / 2.0 +
      filter_bytes(cfg) * static_cast<double>(cfg.batch) / 32.0;
  k.global_store_bytes = output_bytes(cfg);
  k.gld_efficiency = 0.55;
  k.gst_efficiency = 0.80;
  k.shared_bytes = k.flops * 0.35;
  k.shared_efficiency = 1.10;
  k.warp_exec_efficiency = 0.98;
  k.compute_efficiency = convnet2_efficiency(cfg);
  k.achieved_occupancy_factor = 0.82;  // paper: 14–22% achieved
  k.occupancy_needed = 0.14;           // heavy ILP per thread
  return k;
}

class CudaConvnet2 final : public Framework {
 public:
  [[nodiscard]] FrameworkId id() const override {
    return FrameworkId::kCudaConvnet2;
  }
  [[nodiscard]] conv::Strategy strategy() const override {
    return conv::Strategy::kDirect;
  }

  [[nodiscard]] ShapeSupport supports(const ConvConfig& cfg) const override {
    if (cfg.batch % 32 != 0) {
      return {false, "mini-batch must be a multiple of 32"};
    }
    if (cfg.filters % 16 != 0) {
      return {false, "filter count must be a multiple of 16"};
    }
    return {};
  }

  [[nodiscard]] ExecutionPlan plan(const ConvConfig& cfg) const override {
    const PlanScope obs_scope("cuda-convnet2");
    const auto support = supports(cfg);
    check(support.ok, "cuda-convnet2: " + support.reason);
    ExecutionPlan plan;
    plan.kernels.push_back(tagged(
        convnet2_kernel(cfg, "filterActs_YxX_color"),
        gpusim::Pass::kForward));
    plan.kernels.push_back(tagged(convnet2_kernel(cfg, "img_acts_color"),
                                  gpusim::Pass::kBackwardData));
    plan.kernels.push_back(tagged(
        convnet2_kernel(cfg, "conv_weight_acts_c_preload"),
        gpusim::Pass::kBackwardFilter));

    add_activation_memory(plan, cfg, /*with_gradient_buffers=*/false,
                          105.0, "convnet2");
    // No workspace: the defining property of direct convolution.
    add_batch_transfers(plan, cfg, /*pinned=*/false, /*overlap=*/0.35);
    return plan;
  }

  [[nodiscard]] const conv::ConvEngine& engine() const override {
    return conv::strategy_engine(conv::Strategy::kDirect);
  }
  [[nodiscard]] std::size_t table2_registers() const override {
    return 116;
  }
  [[nodiscard]] double table2_smem_kb() const override { return 16.0; }
};

}  // namespace

std::unique_ptr<Framework> make_cuda_convnet2() {
  return std::make_unique<CudaConvnet2>();
}

}  // namespace gpucnn::frameworks::detail
