#include "tune/autotuner.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "conv/conv_engine.hpp"
#include "core/cpu_features.hpp"
#include "obs/metrics.hpp"
#include "simd_guard.hpp"

namespace gpucnn::tune {
namespace {

// Every test pins trials to 1 and restores the tuner's global state, so
// suites can run in any order.
class TunerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tuner_ = &Autotuner::instance();
    mode_before_ = tuner_->mode();
    trials_before_ = tuner_->set_trials_for_testing(1);
    path_before_ = tuner_->set_cache_path("");
    tuner_->clear();
  }
  void TearDown() override {
    tuner_->clear();
    (void)tuner_->set_cache_path(path_before_);
    tuner_->set_trials_for_testing(trials_before_);
    tuner_->set_mode(mode_before_);
  }

  static ConvConfig small_config() {
    return ConvConfig{.batch = 1, .input = 8, .channels = 2, .filters = 4,
                      .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
  }

  Autotuner* tuner_ = nullptr;
  Mode mode_before_{};
  int trials_before_ = 0;
  std::string path_before_;
};

TEST(TuneMode, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_mode("off"), Mode::kOff);
  EXPECT_EQ(parse_mode("heuristic"), Mode::kHeuristic);
  EXPECT_EQ(parse_mode("measure"), Mode::kMeasure);
  EXPECT_FALSE(parse_mode("fastest").has_value());
  EXPECT_EQ(to_string(Mode::kMeasure), "measure");
  EXPECT_EQ(to_string(Pass::kBackwardData), "backward-data");
}

TEST_F(TunerFixture, OffModeChoosesNothing) {
  tuner_->set_mode(Mode::kOff);
  EXPECT_EQ(tuner_->choose(small_config(), Pass::kForward), nullptr);
}

TEST_F(TunerFixture, EligibilityRespectsEngineShapeLimits) {
  // Stride 2 rules out both FFT engines and Winograd; kernel 4 rules out
  // Winograd even at stride 1. measure_all must mark them ineligible and
  // never run them.
  ConvConfig strided = small_config();
  strided.stride = 2;
  const auto timings = tuner_->measure_all(strided, Pass::kForward);
  ASSERT_EQ(timings.size(), 7U);
  for (const auto& t : timings) {
    // Depthwise is also out: the config is ungrouped multi-channel.
    const bool ineligible = t.engine_name == "fft" ||
                            t.engine_name == "fft-tiled" ||
                            t.engine_name == "winograd" ||
                            t.engine_name == "winograd-f4" ||
                            t.engine_name == "depthwise";
    EXPECT_EQ(t.eligible, !ineligible) << t.engine_name;
    if (!t.eligible) {
      EXPECT_EQ(t.ms, 0.0) << t.engine_name << " was timed while ineligible";
    } else {
      EXPECT_GT(t.ms, 0.0) << t.engine_name;
    }
  }
}

TEST_F(TunerFixture, MeasureAllSkipsFftEnginesOnOneByOneKernels) {
  // A 1x1 kernel rules out both FFT engines: measure mode must not pay
  // their transforms for a plain GEMM.
  ConvConfig pointwise = small_config();
  pointwise.kernel = 1;
  pointwise.pad = 0;
  const auto timings = tuner_->measure_all(pointwise, Pass::kForward);
  std::size_t fft_engines = 0;
  for (const auto& t : timings) {
    if (t.engine_name != "fft" && t.engine_name != "fft-tiled") continue;
    ++fft_engines;
    EXPECT_FALSE(t.eligible) << t.engine_name;
    EXPECT_EQ(t.ms, 0.0) << t.engine_name << " was timed while ineligible";
  }
  EXPECT_EQ(fft_engines, 2U);
}

TEST_F(TunerFixture, HeuristicPicksASupportedEngineWithoutTiming) {
  tuner_->set_mode(Mode::kHeuristic);
  const auto trials_before =
      obs::metrics().counter("tune.trials").value();
  ConvConfig grouped = small_config();
  grouped.groups = 2;  // only direct + unrolling support groups
  const Decision d = tuner_->decide(grouped, Pass::kForward);
  ASSERT_NE(d.engine, nullptr);
  EXPECT_TRUE(d.engine->supports(grouped));
  EXPECT_FALSE(d.measured);
  EXPECT_EQ(obs::metrics().counter("tune.trials").value(), trials_before)
      << "heuristic mode must not run engines";
}

TEST_F(TunerFixture, HeuristicPrefersDepthwiseOnDepthwiseShapes) {
  tuner_->set_mode(Mode::kHeuristic);
  ConvConfig dw = small_config();
  dw.channels = 8;
  dw.filters = 16;  // multiplier 2
  dw.groups = 8;
  const Decision d = tuner_->decide(dw, Pass::kForward);
  ASSERT_NE(d.engine, nullptr);
  EXPECT_EQ(d.engine_name, "depthwise");

  // Ungrouped configs keep their previous heuristic picks: the
  // depthwise engine accepts channels == 1 but must not jump the queue.
  tuner_->clear();
  const Decision plain = tuner_->decide(small_config(), Pass::kForward);
  ASSERT_NE(plain.engine, nullptr);
  EXPECT_NE(plain.engine_name, "depthwise");
}

TEST_F(TunerFixture, MeasuredDecisionIsDeterministicAndMemoized) {
  // Pinning the SIMD level makes the candidate set and the memo key
  // deterministic; the winner itself is whatever the machine measures,
  // but repeated decides must return the memoized pick without rerunning.
  const SimdGuard portable(simd::Level::kPortable);
  tuner_->set_mode(Mode::kMeasure);
  const Decision first = tuner_->decide(small_config(), Pass::kForward);
  ASSERT_NE(first.engine, nullptr);
  EXPECT_TRUE(first.measured);
  EXPECT_GT(first.best_ms, 0.0);
  EXPECT_GT(first.baseline_ms, 0.0);
  // The winner is a min over candidates that includes the default, so it
  // can never be slower than the default.
  EXPECT_LE(first.best_ms, first.baseline_ms);

  const auto trials_after_first =
      obs::metrics().counter("tune.trials").value();
  const Decision second = tuner_->decide(small_config(), Pass::kForward);
  EXPECT_EQ(second.engine_name, first.engine_name);
  EXPECT_EQ(obs::metrics().counter("tune.trials").value(),
            trials_after_first)
      << "memoized decision must not re-measure";
}

TEST_F(TunerFixture, CacheRoundTripPreservesDecisions) {
  const std::string path = testing::TempDir() + "tune_cache_rt.json";
  tuner_->set_mode(Mode::kMeasure);
  const Decision fwd = tuner_->decide(small_config(), Pass::kForward);
  const Decision bwd = tuner_->decide(small_config(), Pass::kBackwardData);
  ASSERT_TRUE(tuner_->save_cache(path));

  tuner_->clear();
  EXPECT_EQ(tuner_->size(), 0U);
  EXPECT_EQ(tuner_->load_cache(path), 2U);
  const auto trials_before = obs::metrics().counter("tune.trials").value();
  EXPECT_EQ(tuner_->decide(small_config(), Pass::kForward).engine_name,
            fwd.engine_name);
  EXPECT_EQ(tuner_->decide(small_config(), Pass::kBackwardData).engine_name,
            bwd.engine_name);
  EXPECT_EQ(obs::metrics().counter("tune.trials").value(), trials_before)
      << "reloaded decisions must be warm";
}

TEST_F(TunerFixture, CacheInvalidatesOnKeyMismatch) {
  const std::string path = testing::TempDir() + "tune_cache_inv.json";
  tuner_->set_mode(Mode::kMeasure);
  (void)tuner_->decide(small_config(), Pass::kForward);
  ASSERT_TRUE(tuner_->save_cache(path));

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string original = buf.str();

  const auto tampered_reload = [&](std::string text, std::string_view from,
                                   std::string_view to) {
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    std::ofstream out(path);
    out << text;
    out.close();
    tuner_->clear();
    return tuner_->load_cache(path);
  };

  // Wrong SIMD level: the whole file is discarded.
  EXPECT_EQ(tampered_reload(original,
                            std::string("\"simd\": \"") +
                                simd::name(simd::active()) + '"',
                            "\"simd\": \"sve2\""),
            0U);
  // Wrong thread count: the whole file is discarded.
  EXPECT_EQ(tampered_reload(original, "\"threads\"", "\"threads_x\""), 0U);
  // Wrong schema version: discarded.
  EXPECT_EQ(tampered_reload(original, "\"tune_cache_version\": 2",
                            "\"tune_cache_version\": 999"),
            0U);
  // Wrong engine set (a binary with different engines wrote the file):
  // discarded.
  EXPECT_EQ(tampered_reload(original, "\"engines\"", "\"engines_x\""), 0U);
  // Entry dtype missing (pre-v2 entry shape): that entry is dropped.
  EXPECT_EQ(tampered_reload(original, "\"dtype\"", "\"dtype_x\""), 0U);
  // Edited config field: the per-entry hash no longer matches, so the
  // entry (here, the only one) is dropped while the file stays valid.
  EXPECT_EQ(tampered_reload(original, "\"kernel\": 3", "\"kernel\": 5"),
            0U);
  // Untampered file loads back.
  {
    std::ofstream out(path);
    out << original;
  }
  tuner_->clear();
  EXPECT_EQ(tuner_->load_cache(path), 1U);
}

TEST_F(TunerFixture, KeyHashSeparatesConfigsAndPasses) {
  const ConvConfig a = small_config();
  ConvConfig b = small_config();
  b.pad = 0;
  EXPECT_NE(Autotuner::key_hash(a, Pass::kForward),
            Autotuner::key_hash(b, Pass::kForward));
  EXPECT_NE(Autotuner::key_hash(a, Pass::kForward),
            Autotuner::key_hash(a, Pass::kBackwardFilter));
  EXPECT_EQ(Autotuner::key_hash(a, Pass::kForward),
            Autotuner::key_hash(small_config(), Pass::kForward));
}

TEST_F(TunerFixture, KeyHashSeparatesDtypes) {
  const ConvConfig a = small_config();
  EXPECT_NE(Autotuner::key_hash(a, Pass::kForward, Dtype::kF32),
            Autotuner::key_hash(a, Pass::kForward, Dtype::kInt8));
  EXPECT_EQ(Autotuner::key_hash(a, Pass::kForward),
            Autotuner::key_hash(a, Pass::kForward, Dtype::kF32));
}

TEST_F(TunerFixture, Int8PoolOnlyExtendsTheForwardPass) {
  // The int8 engine joins the candidate pool for (kForward, kInt8) only:
  // fp32 callers keep the exact seven engines, and no backward pass ever
  // sees an inference-only engine.
  const ConvConfig cfg = small_config();
  EXPECT_EQ(tuner_->measure_all(cfg, Pass::kForward).size(), 7U);
  EXPECT_EQ(tuner_->measure_all(cfg, Pass::kBackwardData, Dtype::kInt8)
                .size(),
            7U);
  const auto timings = tuner_->measure_all(cfg, Pass::kForward, Dtype::kInt8);
  ASSERT_EQ(timings.size(), 8U);
  bool unrolling_int8 = false;
  for (const auto& t : timings) {
    unrolling_int8 |= t.engine_name == "unrolling-int8";
  }
  EXPECT_TRUE(unrolling_int8);
}

TEST_F(TunerFixture, Int8DecisionsMemoizeSeparatelyAndRoundTrip) {
  const std::string path = testing::TempDir() + "tune_cache_int8.json";
  tuner_->set_mode(Mode::kMeasure);
  const Decision f32 = tuner_->decide(small_config(), Pass::kForward);
  const Decision int8 =
      tuner_->decide(small_config(), Pass::kForward, Dtype::kInt8);
  ASSERT_NE(f32.engine, nullptr);
  ASSERT_NE(int8.engine, nullptr);
  EXPECT_EQ(tuner_->size(), 2U) << "dtypes must get separate memo keys";

  ASSERT_TRUE(tuner_->save_cache(path));
  tuner_->clear();
  EXPECT_EQ(tuner_->load_cache(path), 2U);
  EXPECT_EQ(
      tuner_->decide(small_config(), Pass::kForward, Dtype::kInt8)
          .engine_name,
      int8.engine_name);
  EXPECT_EQ(tuner_->decide(small_config(), Pass::kForward).engine_name,
            f32.engine_name);
}

TEST_F(TunerFixture, PreInt8CacheIsRejectedWholesale) {
  // A handcrafted v1-era cache (no engines field, no dtype, version 1)
  // must load zero entries rather than resurrect stale decisions.
  const std::string path = testing::TempDir() + "tune_cache_v1.json";
  {
    std::ofstream out(path);
    out << "{\"tune_cache_version\": 1, \"simd\": \""
        << simd::name(simd::active()) << "\", \"threads\": 1, "
        << "\"entries\": []}";
  }
  tuner_->clear();
  EXPECT_EQ(tuner_->load_cache(path), 0U);
}

TEST_F(TunerFixture, DefaultEngineIsTheStaticUnrollingStrategy) {
  EXPECT_EQ(default_engine().name(), "unrolling");
  EXPECT_EQ(default_engine().strategy(), conv::Strategy::kUnrolling);
}

}  // namespace
}  // namespace gpucnn::tune
