// Theano-CorrMM (paper ref [19], Fig. 4(c)): Theano's GpuCorrMM op —
// im2col + cuBLAS, like Caffe, but with the paper's two distinguishing
// behaviours: the lowest global-load efficiency of the field (Fig. 6:
// 11.64%–15.79%, "mainly because of non-coalesced accesses") and a
// cuBLAS call shape that catches up with cuDNN once the filter count is
// large (Fig. 3(c): "Theano-CorrMM slightly outperforms its counterparts
// with large filter numbers"). It also exhibits the Conv2 host-staging
// anomaly of Fig. 7 (>60% transfer share).
#include "frameworks/common.hpp"
#include "frameworks/impl_factory.hpp"

namespace gpucnn::frameworks::detail {
namespace {

UnrollingTraits corrmm_traits() {
  UnrollingTraits t;
  t.gemm_kernel_name = "corrmm_sgemm";
  t.gemm_regs = 72;  // Table II
  t.gemm_smem = 7 * 1024;
  t.gemm_block = 256;
  t.gemm_base_eff = 0.33;  // large-GEMM throughput slightly above Caffe's
  t.large_f_bonus = 0.20;  // catches cuDNN past ~160 filters (Fig. 3(c))
  t.gemm_gld_eff = 0.13;   // the paper's 11.6–15.8% band
  t.gemm_gst_eff = 0.50;
  t.gemm_shared_eff = 1.05;
  t.unroll_gld_eff = 0.22;
  t.unroll_gst_eff = 0.80;
  t.achieved_occ_factor = 0.75;
  t.gradient_buffers = true;  // Theano keeps grad intermediates
  t.context_mb = 115.0;
  t.pinned_input = false;
  t.input_overlap = 0.3;  // Theano batches some copies
  t.host_col_roundtrip = true;
  return t;
}

class TheanoCorrMM final : public Framework {
 public:
  [[nodiscard]] FrameworkId id() const override {
    return FrameworkId::kTheanoCorrMM;
  }
  [[nodiscard]] conv::Strategy strategy() const override {
    return conv::Strategy::kUnrolling;
  }
  [[nodiscard]] ShapeSupport supports(const ConvConfig&) const override {
    return {};
  }
  [[nodiscard]] ExecutionPlan plan(const ConvConfig& cfg) const override {
    const PlanScope obs_scope("theano-corrmm");
    return make_unrolling_plan(cfg, corrmm_traits(), "corrmm");
  }
  [[nodiscard]] const conv::ConvEngine& engine() const override {
    return conv::strategy_engine(conv::Strategy::kUnrolling);
  }
  [[nodiscard]] std::size_t table2_registers() const override { return 72; }
  [[nodiscard]] double table2_smem_kb() const override { return 7.0; }
};

}  // namespace

std::unique_ptr<Framework> make_theano_corrmm() {
  return std::make_unique<TheanoCorrMM>();
}

}  // namespace gpucnn::frameworks::detail
