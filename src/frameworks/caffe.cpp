// Caffe's convolutional layer (paper refs [23], Fig. 4(a)): explicit
// im2col lowering plus one cuBLAS GEMM per image. Caffe allocates diff
// blobs for every tensor (doubling activation memory) and hides input
// transfers behind a data-prefetch thread (paper §V.D: "a data
// prefetching thread is used to hide the latency from CPU-GPU data
// transfer" — its Fig. 7 share is ~0%).
#include "frameworks/common.hpp"
#include "frameworks/impl_factory.hpp"

namespace gpucnn::frameworks::detail {
namespace {

UnrollingTraits caffe_traits() {
  UnrollingTraits t;
  t.gemm_kernel_name = "magma_sgemm";     // cuBLAS kernel family
  t.gemm_regs = 86;                       // Table II
  t.gemm_smem = static_cast<std::size_t>(8.5 * 1024);
  t.gemm_block = 256;
  t.gemm_base_eff = 0.32;
  t.gemm_gld_eff = 0.18;
  t.gemm_gst_eff = 0.55;
  t.gemm_shared_eff = 1.12;
  t.unroll_gld_eff = 0.25;
  t.unroll_gst_eff = 0.85;
  t.achieved_occ_factor = 0.80;
  t.gradient_buffers = true;
  t.context_mb = 110.0;
  t.pinned_input = true;
  t.input_overlap = 0.98;  // prefetch thread
  return t;
}

class Caffe final : public Framework {
 public:
  [[nodiscard]] FrameworkId id() const override {
    return FrameworkId::kCaffe;
  }
  [[nodiscard]] conv::Strategy strategy() const override {
    return conv::Strategy::kUnrolling;
  }
  [[nodiscard]] ShapeSupport supports(const ConvConfig&) const override {
    return {};  // unrolling supports any shape (paper §IV.B summary)
  }
  [[nodiscard]] ExecutionPlan plan(const ConvConfig& cfg) const override {
    const PlanScope obs_scope("caffe");
    return make_unrolling_plan(cfg, caffe_traits(), "caffe");
  }
  [[nodiscard]] const conv::ConvEngine& engine() const override {
    return conv::strategy_engine(conv::Strategy::kUnrolling);
  }
  [[nodiscard]] std::size_t table2_registers() const override { return 86; }
  [[nodiscard]] double table2_smem_kb() const override { return 8.5; }
};

}  // namespace

std::unique_ptr<Framework> make_caffe() { return std::make_unique<Caffe>(); }

}  // namespace gpucnn::frameworks::detail
