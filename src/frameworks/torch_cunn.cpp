// Torch-cunn's SpatialConvolutionMM (paper ref [20], Fig. 4(b)): the same
// im2col + cuBLAS structure as Caffe, with buffer-sharing that keeps the
// activation footprint near cuda-convnet2's (paper §V.B: "Torch-cunn is
// the overall most memory efficient implementation in unrolling-based
// convolution"), but synchronous input copies (Fig. 7 share 1–15%).
#include "frameworks/common.hpp"
#include "frameworks/impl_factory.hpp"

namespace gpucnn::frameworks::detail {
namespace {

UnrollingTraits torch_traits() {
  UnrollingTraits t;
  t.gemm_kernel_name = "cublas_sgemm";
  t.gemm_regs = 84;  // Table II
  t.gemm_smem = static_cast<std::size_t>(8.1 * 1024);
  t.gemm_block = 512;  // one fat block; 25% theoretical occupancy
  t.gemm_base_eff = 0.30;
  t.gemm_gld_eff = 0.16;
  t.gemm_gst_eff = 0.52;
  t.gemm_shared_eff = 1.08;
  t.unroll_gld_eff = 0.24;
  t.unroll_gst_eff = 0.84;
  t.achieved_occ_factor = 0.82;
  t.gradient_buffers = false;  // shares grad storage via getParameters()
  t.context_mb = 150.0;        // torch/cutorch runtime
  t.pinned_input = false;
  t.input_overlap = 0.0;  // synchronous copies
  return t;
}

class TorchCunn final : public Framework {
 public:
  [[nodiscard]] FrameworkId id() const override {
    return FrameworkId::kTorchCunn;
  }
  [[nodiscard]] conv::Strategy strategy() const override {
    return conv::Strategy::kUnrolling;
  }
  [[nodiscard]] ShapeSupport supports(const ConvConfig&) const override {
    return {};
  }
  [[nodiscard]] ExecutionPlan plan(const ConvConfig& cfg) const override {
    const PlanScope obs_scope("torch-cunn");
    ExecutionPlan plan = make_unrolling_plan(cfg, torch_traits(), "torch");
    // SpatialConvolutionMM keeps a second lowered buffer (fgradInput).
    plan.memory.push_back({"torch:fgradInput-workspace",
                           col_image_bytes(cfg), /*workspace=*/true});
    return plan;
  }
  [[nodiscard]] const conv::ConvEngine& engine() const override {
    return conv::strategy_engine(conv::Strategy::kUnrolling);
  }
  [[nodiscard]] std::size_t table2_registers() const override { return 84; }
  [[nodiscard]] double table2_smem_kb() const override { return 8.1; }
};

}  // namespace

std::unique_ptr<Framework> make_torch_cunn() {
  return std::make_unique<TorchCunn>();
}

}  // namespace gpucnn::frameworks::detail
