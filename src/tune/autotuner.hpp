// Empirical convolution engine selection — the paper's central finding
// ("no single implementation wins everywhere", Figs. 3–4) turned into an
// executor policy. For a (ConvConfig, pass) key the autotuner times every
// eligible real engine, seeded in search order by the analysis/recommend
// model prior so bad candidates are pruned after one warm-up run, picks
// the fastest and memoizes the decision process-wide. Decisions persist
// in a versioned on-disk JSON cache keyed by config hash + dtype +
// active SIMD level + thread count + the engine set the binary ships
// (so a cache written before an engine existed — e.g. any pre-int8
// cache — is invalidated instead of silently pinning stale decisions);
// entries whose key no longer matches the running process are discarded
// on load.
//
// Modes (GPUCNN_TUNE environment override, lowest priority; set_mode
// wins):
//   off        no tuning — layers keep their statically chosen engine;
//   heuristic  pick the model prior's top eligible engine, no timing;
//   measure    time candidates on first use, warm decisions are free.
//
// Metrics: tune.hits / tune.misses (memo lookups), tune.trials (timed
// engine executions, warm-ups included), tune.ms_spent (gauge, total
// wall time spent measuring).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "conv/conv_engine.hpp"
#include "core/shape.hpp"
#include "obs/json.hpp"

namespace gpucnn::tune {

/// The three training passes tuned independently (the paper's per-pass
/// runtime splits show the winner flips between them).
enum class Pass { kForward, kBackwardData, kBackwardFilter };

enum class Mode { kOff, kHeuristic, kMeasure };

/// Numeric flavour a caller wants tuned. kF32 callers see only the
/// exact fp32 engines (quantized engines would silently change results);
/// kInt8 callers — quantized conv layers, which have already accepted
/// quantization error — additionally get the int8 engines in the
/// forward-pass candidate pool, so a measured decision picks int8 only
/// when it is actually faster than the best fp32 engine.
enum class Dtype { kF32, kInt8 };

[[nodiscard]] std::string_view to_string(Pass pass);
[[nodiscard]] std::string_view to_string(Mode mode);
[[nodiscard]] std::string_view to_string(Dtype dtype);
/// Parses "off" / "heuristic" / "measure"; nullopt otherwise.
[[nodiscard]] std::optional<Mode> parse_mode(std::string_view text);

/// One resolved (config, pass) choice.
struct Decision {
  const conv::ConvEngine* engine = nullptr;
  std::string_view engine_name;
  double best_ms = 0.0;      ///< winner's measured time (0 if unmeasured)
  double baseline_ms = 0.0;  ///< static default's time (0 if unmeasured)
  bool measured = false;
};

/// One engine's timing from a full measurement sweep.
struct EngineTiming {
  std::string_view engine_name;
  bool eligible = false;
  double ms = 0.0;  ///< best-of-trials wall time; 0 when ineligible
};

/// Process-wide tuner. Thread-safe; decisions are memoized under one
/// mutex, so a concurrent first use of a key measures exactly once.
class Autotuner {
 public:
  static Autotuner& instance();

  [[nodiscard]] Mode mode() const;
  void set_mode(Mode mode);

  /// The engine (cfg, pass) should run with under the current mode, or
  /// nullptr in kOff mode (callers keep their static engine).
  [[nodiscard]] const conv::ConvEngine* choose(const ConvConfig& cfg,
                                               Pass pass,
                                               Dtype dtype = Dtype::kF32);

  /// The memoized decision for (cfg, pass, dtype), measuring candidates
  /// on a miss when the mode is kMeasure (kOff / kHeuristic never time).
  Decision decide(const ConvConfig& cfg, Pass pass,
                  Dtype dtype = Dtype::kF32);

  /// Times every engine in the (pass, dtype) candidate pool on cfg — no
  /// memo, no pruning. The engine_advisor --measure comparison and
  /// tests use this.
  [[nodiscard]] std::vector<EngineTiming> measure_all(
      const ConvConfig& cfg, Pass pass, Dtype dtype = Dtype::kF32);

  /// Writes every measured decision to `path` (versioned JSON, keyed by
  /// config hash + SIMD level + thread count). Returns false on I/O
  /// failure.
  bool save_cache(const std::string& path);
  /// Loads `path`, keeping only entries whose version, SIMD level,
  /// thread count and per-entry config hash all match this process.
  /// Returns the number of entries kept.
  std::size_t load_cache(const std::string& path);

  /// Points the persistent cache at `path` ("" disables persistence);
  /// returns the previous path. New measured decisions write through.
  std::string set_cache_path(std::string path);

  /// One memoized decision with its reconstructed key, for reporting.
  struct Entry {
    ConvConfig config;
    Pass pass{};
    Dtype dtype{};
    Decision decision;
  };
  /// Snapshot of every memoized decision, in key order (examples print
  /// this as the "which engine won where" table).
  [[nodiscard]] std::vector<Entry> entries();

  /// Drops all memoized decisions (test hook).
  void clear();
  [[nodiscard]] std::size_t size();

  /// Trial repetitions per candidate after the warm-up run (default 2;
  /// tests and the fuzz round-trip use 1 to stay cheap). Returns the
  /// previous value.
  int set_trials_for_testing(int trials);

  /// FNV-1a hash of the config fields + pass + dtype, the cache entry
  /// key.
  [[nodiscard]] static std::uint64_t key_hash(const ConvConfig& cfg,
                                              Pass pass,
                                              Dtype dtype = Dtype::kF32);

 private:
  Autotuner();

  using Key = std::array<std::size_t, 10>;  // 8 config fields+pass+dtype
  static Key make_key(const ConvConfig& cfg, Pass pass, Dtype dtype);

  Decision decide_locked(const ConvConfig& cfg, Pass pass, Dtype dtype);
  Decision measure_locked(const ConvConfig& cfg, Pass pass, Dtype dtype);
  Decision heuristic_locked(const ConvConfig& cfg, Pass pass, Dtype dtype);
  [[nodiscard]] obs::Json cache_json_locked() const;
  std::size_t ingest_cache_text(const std::string& text);
  void persist_locked();

  mutable std::mutex mutex_;
  Mode mode_;
  int trials_ = 2;
  std::map<Key, Decision> memo_;
  std::string cache_path_;  ///< from GPUCNN_TUNE_CACHE; empty = no disk
  bool cache_loaded_ = false;
  double ms_spent_ = 0.0;
};

/// The static-default engine an untuned layer would use (im2col + GEMM),
/// the baseline the acceptance comparisons are made against.
[[nodiscard]] const conv::ConvEngine& default_engine();

}  // namespace gpucnn::tune
