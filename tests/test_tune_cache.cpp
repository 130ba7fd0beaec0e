// Hostile tune caches: a cache file is untrusted input (it may be
// truncated by a crash, corrupted or hand-edited), so every malformed
// file must load as zero entries — never crash, recurse without bound or
// cast an out-of-range number.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "tune/autotuner.hpp"

namespace gpucnn::tune {
namespace {

class HostileTuneCache : public ::testing::Test {
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

  /// `file` in the test temp dir, prefixed with this test's name: ctest
  /// runs every TEST as its own process, concurrently under -j, so two
  /// tests must never share a path.
  static std::string temp_path(std::string_view file) {
    return testing::TempDir() +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::string(file);
  }

  static ConvConfig small_config() {
    return ConvConfig{.batch = 1, .input = 8, .channels = 2, .filters = 4,
                      .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
  }

  /// A cache this process wrote: one measured forward decision.
  std::string real_cache() {
    const std::string path = temp_path("hostile_real.json");
    tuner_->set_mode(Mode::kMeasure);
    (void)tuner_->decide(small_config(), Pass::kForward);
    EXPECT_TRUE(tuner_->save_cache(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

  /// Entries kept when `text` is loaded into an empty memo.
  std::size_t load_text(std::string_view text) {
    const std::string path = temp_path("hostile_case.json");
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    tuner_->clear();
    const std::size_t kept = tuner_->load_cache(path);
    EXPECT_EQ(tuner_->size(), kept);
    return kept;
  }

  /// The cache's spelling of a forward fp32 entry's key hash.
  static std::string hash_text(const ConvConfig& cfg) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(
                      Autotuner::key_hash(cfg, Pass::kForward)));
    return hex;
  }

  /// `text` with the first occurrence of `from` replaced by `to`.
  static std::string replaced(std::string text, std::string_view from,
                              std::string_view to) {
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  }

  Autotuner* tuner_ = nullptr;
  Mode mode_before_{};
  int trials_before_ = 0;
  std::string path_before_;
};

TEST_F(HostileTuneCache, RealCacheLoadsBack) {
  EXPECT_EQ(load_text(real_cache()), 1U);
}

TEST_F(HostileTuneCache, DeepNestingIsRejected) {
  EXPECT_EQ(load_text(std::string(100'000, '[')), 0U);
  EXPECT_EQ(load_text(std::string(1'000, '[') + std::string(1'000, ']')),
            0U);
  std::string objects;
  for (int i = 0; i < 1'000; ++i) objects += "{\"a\":";
  objects += "0";
  objects += std::string(1'000, '}');
  EXPECT_EQ(load_text(objects), 0U);
}

TEST_F(HostileTuneCache, LazyLoadThroughTheCachePathSurvivesDeepNesting) {
  // The GPUCNN_TUNE_CACHE path loads on first use, inside decide().
  const std::string path = temp_path("hostile_lazy.json");
  {
    std::ofstream out(path);
    out << std::string(100'000, '[');
  }
  (void)tuner_->set_cache_path(path);
  tuner_->set_mode(Mode::kHeuristic);
  EXPECT_NE(tuner_->decide(small_config(), Pass::kForward).engine, nullptr);
  EXPECT_EQ(tuner_->size(), 1U);  // the fresh decision only
}

TEST_F(HostileTuneCache, EveryTruncationOfARealCacheKeepsNothing) {
  const std::string text = real_cache();
  const std::size_t root_close = text.rfind('}');
  ASSERT_NE(root_close, std::string::npos);
  // Every prefix that cuts the root object's closing brace off.
  for (std::size_t len = 0; len <= root_close; ++len) {
    EXPECT_EQ(load_text(std::string_view(text).substr(0, len)), 0U)
        << "prefix of " << len << " bytes";
  }
}

TEST_F(HostileTuneCache, OutOfRangeAndNonIntegralNumbersKeepNothing) {
  const std::string text = real_cache();
  ASSERT_NE(text.find("\"batch\": 1,"), std::string::npos);
  for (const std::string_view bad :
       {"-1", "1e300", "1.5", "18446744073709551616", "1e999", "-0.5",
        "inf", "nan", "0x10", "+1", "--1", "1e", "."}) {
    const std::string field = std::string("\"batch\": ") + std::string(bad);
    EXPECT_EQ(load_text(replaced(text, "\"batch\": 1", field)), 0U)
        << "batch = " << bad;
  }
  for (const std::string_view bad : {"-1", "1e300", "2.5", "1e999"}) {
    EXPECT_EQ(load_text(replaced(text, "\"tune_cache_version\": 2",
                                 std::string("\"tune_cache_version\": ") +
                                     std::string(bad))),
              0U)
        << "version = " << bad;
    EXPECT_EQ(load_text(replaced(text, "\"threads\": ",
                                 std::string("\"threads\": ") +
                                     std::string(bad) + ", \"x\": ")),
              0U)
        << "threads = " << bad;
  }
}

TEST_F(HostileTuneCache, HashValidEntryWithInvalidGeometryIsDropped) {
  // A well-formed entry whose hash matches its (invalid) fields: zero
  // groups would divide by zero in the depthwise eligibility check.
  const std::string text = real_cache();
  const ConvConfig bad{.batch = 1, .input = 8, .channels = 0, .filters = 4,
                       .kernel = 3, .stride = 1, .pad = 1, .groups = 0};
  std::string edited = replaced(text, "\"channels\": 2", "\"channels\": 0");
  edited = replaced(edited, "\"groups\": 1", "\"groups\": 0");
  edited = replaced(edited, hash_text(small_config()), hash_text(bad));
  constexpr std::string_view kEngine = "\"engine\": \"";
  const auto name_begin = edited.find(kEngine) + kEngine.size();
  ASSERT_GT(name_begin, kEngine.size());
  edited.replace(name_begin, edited.find('"', name_begin) - name_begin,
                 "depthwise");
  EXPECT_EQ(load_text(edited), 0U);
}

}  // namespace
}  // namespace gpucnn::tune
