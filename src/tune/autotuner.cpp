#include "tune/autotuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "analysis/recommend.hpp"
#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace gpucnn::tune {
namespace {

// Version 2: the key grew a dtype word and the file header an "engines"
// field naming the engine set the writer shipped. Version-1 caches
// (pre-int8) are rejected wholesale on load — their decisions were made
// without the int8 candidates and would pin stale fp32-only picks.
constexpr int kCacheVersion = 2;
/// Prune a candidate whose single warm-up run is already this many times
/// slower than the best engine seen so far for the key.
constexpr double kPruneFactor = 2.5;

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::metrics().counter("tune.hits");
  return c;
}
obs::Counter& misses_counter() {
  static obs::Counter& c = obs::metrics().counter("tune.misses");
  return c;
}
obs::Counter& trials_counter() {
  static obs::Counter& c = obs::metrics().counter("tune.trials");
  return c;
}
obs::Gauge& ms_spent_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("tune.ms_spent");
  return g;
}

bool int8_pool_eligible(Pass pass, Dtype dtype) {
  return dtype == Dtype::kInt8 && pass == Pass::kForward;
}

/// The (pass, dtype) candidate pool: every exact fp32 engine, plus the
/// int8 engines for int8 forward callers only (they are inference-only
/// and lossy).
bool in_pool(const conv::ConvEngine& engine, Pass pass, Dtype dtype) {
  return !engine.quantized() || int8_pool_eligible(pass, dtype);
}

/// Comma-joined names of every engine this binary ships, in registry
/// order — the cache header field that invalidates caches written by
/// binaries with a different engine set.
std::string engine_set_string() {
  std::string out;
  for (const conv::ConvEngine* e : conv::registry()) {
    if (!out.empty()) out += ',';
    out += e->name();
  }
  return out;
}

/// Search order for `cfg`: the pool sorted by the recommend model's
/// simulated runtimes (fastest strategy first), so on real hardware the
/// likely winner is measured first and slow candidates hit the prune
/// check. Engines the model cannot rank append in registry order.
std::vector<const conv::ConvEngine*> prior_order(const ConvConfig& cfg,
                                                 Pass pass, Dtype dtype) {
  std::vector<const conv::ConvEngine*> order;
  order.reserve(conv::registry().size());
  const auto push = [&](const conv::ConvEngine* engine) {
    if (in_pool(*engine, pass, dtype) &&
        std::find(order.begin(), order.end(), engine) == order.end()) {
      order.push_back(engine);
    }
  };

  // Int8 callers: the quantized engines lead the search — they are the
  // likely winners, so measuring them first arms the prune check before
  // the slower fp32 candidates run.
  for (const conv::ConvEngine* e : conv::registry()) {
    if (e->quantized()) push(e);
  }

  // Depthwise-degenerate shapes: the specialised engine is the likely
  // winner (no im2col traffic, no wasted reduction), so it leads the
  // search; the recommend model below only knows the paper's strategies.
  if (cfg.groups == cfg.channels && cfg.groups > 1) {
    push(conv::find_engine("depthwise"));
  }

  // Zoo-dominant 3x3/stride-1 shapes: the scattered-GEMM Winograd
  // engines win once the GEMMs are deep and wide enough to amortise the
  // transforms — measured ≥2x over im2col GEMM at C,F ≥ 64 on 28²+
  // feature maps. F(4x4,3x3) (4x multiply reduction) leads F(2x2,3x3).
  // The size gate keeps small shapes (LeNet, fuzzer degenerates) on the
  // unchanged prior.
  if (cfg.kernel == 3 && cfg.stride == 1 && cfg.groups == 1 &&
      cfg.pad <= 2 && cfg.channels >= 64 && cfg.filters >= 64 &&
      cfg.input >= 28) {
    push(conv::find_engine("winograd-f4"));
    push(conv::find_engine("winograd"));
  }

  analysis::Recommendation rec;
  try {
    rec = analysis::recommend(cfg);
  } catch (const Error&) {
    // Model failure is not fatal: fall back to the base order.
  }
  std::vector<const analysis::LayerResult*> ranked;
  for (const auto& r : rec.results) {
    if (r.supported && !r.out_of_memory) ranked.push_back(&r);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto* a, const auto* b) {
              return a->runtime_ms < b->runtime_ms;
            });
  // Each ranked strategy brings every engine implementing it, in
  // registry order (e.g. the FFT engine, then its tiled variant).
  for (const auto* r : ranked) {
    const conv::Strategy s = frameworks::framework(r->framework).strategy();
    for (const conv::ConvEngine* e : conv::registry()) {
      if (e->strategy() == s) push(e);
    }
  }
  for (const conv::ConvEngine* e : conv::registry()) push(e);
  return order;
}

/// Scratch tensors for timing one (cfg, pass) key. Deterministic fill so
/// repeated measurements exercise identical data.
struct Workload {
  Tensor input, filters, output, grad_output, grad_input, grad_filters;

  std::shared_ptr<const conv::PackedFilters> packed;

  explicit Workload(const ConvConfig& cfg) {
    Rng rng(0x7u);
    input.resize(cfg.input_shape());
    input.fill_uniform(rng, -1.0F, 1.0F);
    filters.resize(cfg.filter_shape());
    filters.fill_uniform(rng, -0.5F, 0.5F);
    output.resize(cfg.output_shape());
    grad_output.resize(cfg.output_shape());
    grad_output.fill_uniform(rng, -1.0F, 1.0F);
    grad_input.resize(cfg.input_shape());
    grad_filters.resize(cfg.filter_shape());
  }

  /// Builds `engine`'s own packed-filter cache for the forward pass.
  /// Called outside every timed region: the timed runs then measure the
  /// pack-once/execute-many form the inference layers actually execute
  /// after freeze_for_inference().
  void prepare(const conv::ConvEngine& engine, const ConvConfig& cfg,
               Pass pass) {
    packed = pass == Pass::kForward ? engine.prepack(cfg, filters) : nullptr;
  }

  void run(const conv::ConvEngine& engine, const ConvConfig& cfg,
           Pass pass) {
    switch (pass) {
      case Pass::kForward:
        engine.forward(cfg, input, filters, output, {.packed = packed.get()});
        break;
      case Pass::kBackwardData:
        engine.backward_data(cfg, grad_output, filters, grad_input);
        break;
      case Pass::kBackwardFilter:
        engine.backward_filter(cfg, input, grad_output, grad_filters);
        break;
    }
  }
};

/// Times `engine` on the workload: one warm-up run, then `trials` timed
/// runs, reporting the minimum — or the warm-up alone when it already
/// exceeds `prune_above_ms`, so a candidate far behind the leader skips
/// its repetitions. Every run counts as a trial and its wall time
/// accumulates in `spent_ms`.
double time_engine(Workload& work, const conv::ConvEngine& engine,
                   const ConvConfig& cfg, Pass pass, int trials,
                   double prune_above_ms, double& spent_ms) {
  work.prepare(engine, cfg, pass);
  Timer timer;
  work.run(engine, cfg, pass);
  const double warmup_ms = timer.elapsed_ms();
  trials_counter().add(1);
  spent_ms += warmup_ms;
  if (warmup_ms > prune_above_ms) return warmup_ms;

  double best = warmup_ms;
  for (int t = 0; t < trials; ++t) {
    timer.reset();
    work.run(engine, cfg, pass);
    const double ms = timer.elapsed_ms();
    trials_counter().add(1);
    spent_ms += ms;
    best = std::min(best, ms);
  }
  return best;
}

std::size_t pass_index(Pass pass) { return static_cast<std::size_t>(pass); }

std::optional<Pass> pass_from_name(std::string_view name) {
  if (name == "forward") return Pass::kForward;
  if (name == "backward-data") return Pass::kBackwardData;
  if (name == "backward-filter") return Pass::kBackwardFilter;
  return std::nullopt;
}

std::size_t dtype_index(Dtype dtype) {
  return static_cast<std::size_t>(dtype);
}

std::optional<Dtype> dtype_from_name(std::string_view name) {
  if (name == "fp32") return Dtype::kF32;
  if (name == "int8") return Dtype::kInt8;
  return std::nullopt;
}

double number_or(const obs::Json& obj, std::string_view key, double fallback) {
  const obs::Json* v = obj.find(key);
  return v != nullptr && v->type() == obs::Json::Type::kNumber ? v->as_number()
                                                               : fallback;
}

std::string string_or(const obs::Json& obj, std::string_view key) {
  const obs::Json* v = obj.find(key);
  return v != nullptr && v->type() == obs::Json::Type::kString ? v->as_string()
                                                               : std::string{};
}

/// The config fields of a cache entry, or nullopt unless every field is
/// an integral number in [0, 2^53] and together they form a valid
/// geometry — checked before any cast, since the file is untrusted.
std::optional<ConvConfig> config_from(const obs::Json& entry) {
  constexpr std::array<std::string_view, 8> kFields = {
      "batch",  "input",  "channels", "filters",
      "kernel", "stride", "pad",      "groups"};
  std::array<std::size_t, 8> f{};
  for (std::size_t i = 0; i < kFields.size(); ++i) {
    const double v = number_or(entry, kFields[i], -1.0);
    if (!(v >= 0.0 && v <= 9007199254740992.0) || v != std::floor(v)) {
      return std::nullopt;
    }
    f[i] = static_cast<std::size_t>(v);
  }
  const ConvConfig cfg{f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]};
  if (cfg.batch == 0) return std::nullopt;
  try {
    (void)cfg.output();  // throws on a kernel, stride or group mismatch
  } catch (const Error&) {
    return std::nullopt;
  }
  return cfg;
}

/// Thread count folded into the cache key: workers + the caller-runs
/// thread, the parallelism every engine actually sees.
std::size_t active_threads() { return global_pool().size() + 1; }

}  // namespace

std::string_view to_string(Pass pass) {
  switch (pass) {
    case Pass::kForward: return "forward";
    case Pass::kBackwardData: return "backward-data";
    case Pass::kBackwardFilter: return "backward-filter";
  }
  return "?";
}

std::string_view to_string(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kHeuristic: return "heuristic";
    case Mode::kMeasure: return "measure";
  }
  return "?";
}

std::optional<Mode> parse_mode(std::string_view text) {
  if (text == "off") return Mode::kOff;
  if (text == "heuristic") return Mode::kHeuristic;
  if (text == "measure") return Mode::kMeasure;
  return std::nullopt;
}

std::string_view to_string(Dtype dtype) {
  switch (dtype) {
    case Dtype::kF32: return "fp32";
    case Dtype::kInt8: return "int8";
  }
  return "?";
}

Autotuner& Autotuner::instance() {
  static Autotuner tuner;
  return tuner;
}

Autotuner::Autotuner() : mode_(Mode::kHeuristic) {
  if (const char* env = std::getenv("GPUCNN_TUNE")) {
    if (const auto parsed = parse_mode(env)) mode_ = *parsed;
  }
  if (const char* env = std::getenv("GPUCNN_TUNE_CACHE")) {
    cache_path_ = env;
  }
}

Mode Autotuner::mode() const {
  std::lock_guard lock(mutex_);
  return mode_;
}

void Autotuner::set_mode(Mode mode) {
  std::lock_guard lock(mutex_);
  mode_ = mode;
}

Autotuner::Key Autotuner::make_key(const ConvConfig& cfg, Pass pass,
                                   Dtype dtype) {
  return {cfg.batch,  cfg.input, cfg.channels, cfg.filters,
          cfg.kernel, cfg.stride, cfg.pad,     cfg.groups,
          pass_index(pass), dtype_index(dtype)};
}

std::uint64_t Autotuner::key_hash(const ConvConfig& cfg, Pass pass,
                                  Dtype dtype) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the key words
  for (const std::size_t word : make_key(cfg, pass, dtype)) {
    auto v = static_cast<std::uint64_t>(word);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

const conv::ConvEngine* Autotuner::choose(const ConvConfig& cfg, Pass pass,
                                          Dtype dtype) {
  std::lock_guard lock(mutex_);
  if (mode_ == Mode::kOff) return nullptr;
  return decide_locked(cfg, pass, dtype).engine;
}

Decision Autotuner::decide(const ConvConfig& cfg, Pass pass, Dtype dtype) {
  std::lock_guard lock(mutex_);
  return decide_locked(cfg, pass, dtype);
}

Decision Autotuner::decide_locked(const ConvConfig& cfg, Pass pass,
                                  Dtype dtype) {
  if (!cache_loaded_ && !cache_path_.empty()) {
    cache_loaded_ = true;  // one attempt per process, hit or miss
    // Re-entrancy is safe: load_cache locks nothing below this level.
    std::size_t kept = 0;
    std::ifstream in(cache_path_);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      kept = ingest_cache_text(buf.str());
    }
    (void)kept;
  }
  const Key key = make_key(cfg, pass, dtype);
  const auto it = memo_.find(key);
  if (it != memo_.end() &&
      (mode_ != Mode::kMeasure || it->second.measured)) {
    hits_counter().add(1);
    return it->second;
  }
  misses_counter().add(1);
  Decision d = mode_ == Mode::kMeasure ? measure_locked(cfg, pass, dtype)
                                       : heuristic_locked(cfg, pass, dtype);
  memo_[key] = d;
  if (d.measured) persist_locked();
  return d;
}

Decision Autotuner::heuristic_locked(const ConvConfig& cfg, Pass pass,
                                     Dtype dtype) {
  // The model prior does not distinguish passes; the pool does.
  for (const conv::ConvEngine* engine : prior_order(cfg, pass, dtype)) {
    if (engine->supports(cfg)) {
      return {.engine = engine,
              .engine_name = engine->name(),
              .best_ms = 0.0,
              .baseline_ms = 0.0,
              .measured = false};
    }
  }
  const conv::ConvEngine& fallback = default_engine();
  return {.engine = &fallback, .engine_name = fallback.name()};
}

Decision Autotuner::measure_locked(const ConvConfig& cfg, Pass pass,
                                   Dtype dtype) {
  Workload work(cfg);
  const conv::ConvEngine* best_engine = nullptr;
  double best_ms = 0.0;
  double baseline_ms = 0.0;

  for (const conv::ConvEngine* engine : prior_order(cfg, pass, dtype)) {
    if (!engine->supports(cfg)) continue;
    // The prior ordering times likely winners first, so a warm-up far
    // behind the leader (which cannot win) is common.
    const double ms = time_engine(
        work, *engine, cfg, pass, trials_,
        best_engine != nullptr ? kPruneFactor * best_ms
                               : std::numeric_limits<double>::infinity(),
        ms_spent_);
    if (engine == &default_engine()) baseline_ms = ms;
    if (best_engine == nullptr || ms < best_ms) {
      best_engine = engine;
      best_ms = ms;
    }
  }
  ms_spent_gauge().set(ms_spent_);
  if (best_engine == nullptr) best_engine = &default_engine();
  return {.engine = best_engine,
          .engine_name = best_engine->name(),
          .best_ms = best_ms,
          .baseline_ms = baseline_ms,
          .measured = true};
}

std::vector<EngineTiming> Autotuner::measure_all(const ConvConfig& cfg,
                                                 Pass pass, Dtype dtype) {
  std::lock_guard lock(mutex_);
  Workload work(cfg);
  std::vector<EngineTiming> timings;
  for (const conv::ConvEngine* engine : conv::registry()) {
    if (!in_pool(*engine, pass, dtype)) continue;
    EngineTiming t{.engine_name = engine->name()};
    if (engine->supports(cfg)) {
      t.eligible = true;
      t.ms = time_engine(work, *engine, cfg, pass, trials_,
                         std::numeric_limits<double>::infinity(), ms_spent_);
    }
    timings.push_back(t);
  }
  ms_spent_gauge().set(ms_spent_);
  return timings;
}

bool Autotuner::save_cache(const std::string& path) {
  std::lock_guard lock(mutex_);
  cache_path_ = path;
  cache_loaded_ = true;  // what we are about to write is the cache
  std::ofstream out(path);
  if (!out) return false;
  out << cache_json_locked().dump_string(2) << '\n';
  return out.good();
}

obs::Json Autotuner::cache_json_locked() const {
  obs::Json root = obs::Json::object();
  root.set("tune_cache_version", obs::Json(kCacheVersion));
  root.set("simd", obs::Json(simd::name(simd::active())));
  root.set("threads", obs::Json(active_threads()));
  root.set("engines", obs::Json(engine_set_string()));
  obs::Json entries = obs::Json::array();
  for (const auto& [key, decision] : memo_) {
    if (!decision.measured) continue;  // heuristic picks are free to redo
    const ConvConfig cfg{key[0], key[1], key[2], key[3],
                         key[4], key[5], key[6], key[7]};
    const auto pass = static_cast<Pass>(key[8]);
    const auto dtype = static_cast<Dtype>(key[9]);
    obs::Json entry = obs::Json::object();
    entry.set("batch", obs::Json(cfg.batch));
    entry.set("input", obs::Json(cfg.input));
    entry.set("channels", obs::Json(cfg.channels));
    entry.set("filters", obs::Json(cfg.filters));
    entry.set("kernel", obs::Json(cfg.kernel));
    entry.set("stride", obs::Json(cfg.stride));
    entry.set("pad", obs::Json(cfg.pad));
    entry.set("groups", obs::Json(cfg.groups));
    entry.set("pass", obs::Json(std::string(to_string(pass))));
    entry.set("dtype", obs::Json(std::string(to_string(dtype))));
    // Hex string: a JSON double cannot carry 64 hash bits exactly.
    char hex[19];
    std::snprintf(
        hex, sizeof hex, "0x%016llx",
        static_cast<unsigned long long>(key_hash(cfg, pass, dtype)));
    entry.set("hash", obs::Json(std::string(hex)));
    entry.set("engine", obs::Json(std::string(decision.engine_name)));
    entry.set("best_ms", obs::Json(decision.best_ms));
    entry.set("baseline_ms", obs::Json(decision.baseline_ms));
    entries.push(std::move(entry));
  }
  root.set("entries", std::move(entries));
  return root;
}

std::size_t Autotuner::load_cache(const std::string& path) {
  std::lock_guard lock(mutex_);
  cache_path_ = path;
  cache_loaded_ = true;
  std::ifstream in(path);
  if (!in) return 0;
  std::ostringstream buf;
  buf << in.rdbuf();
  return ingest_cache_text(buf.str());
}

std::size_t Autotuner::ingest_cache_text(const std::string& text) {
  const auto parsed = obs::parse_json(text);
  if (!parsed) return 0;
  const obs::Json& root = *parsed;
  // Whole-file key: version, SIMD level and thread count must all match
  // this process, otherwise every timing in the file is suspect. The
  // comparisons stay in double: the file's numbers are untrusted.
  if (number_or(root, "tune_cache_version", -1) != kCacheVersion) return 0;
  if (string_or(root, "simd") != simd::name(simd::active())) return 0;
  if (number_or(root, "threads", 0) !=
      static_cast<double>(active_threads())) {
    return 0;
  }
  // The engine set must match the running binary: a cache written by a
  // binary with fewer (or different) engines never compared against the
  // ones this binary ships, so its winners are not trustworthy.
  if (string_or(root, "engines") != engine_set_string()) return 0;
  const obs::Json* entries = root.find("entries");
  if (entries == nullptr || entries->type() != obs::Json::Type::kArray) {
    return 0;
  }
  std::size_t kept = 0;
  for (const obs::Json& entry : entries->items()) {
    const auto config = config_from(entry);
    if (!config) continue;
    const ConvConfig& cfg = *config;
    const auto pass = pass_from_name(string_or(entry, "pass"));
    if (!pass) continue;
    const auto dtype = dtype_from_name(string_or(entry, "dtype"));
    if (!dtype) continue;
    // Per-entry key check: recompute the hash from the stored fields; a
    // mismatch means the entry was edited or the key schema changed.
    char hex[19];
    std::snprintf(
        hex, sizeof hex, "0x%016llx",
        static_cast<unsigned long long>(key_hash(cfg, *pass, *dtype)));
    if (string_or(entry, "hash") != hex) continue;
    const conv::ConvEngine* engine =
        conv::find_engine(string_or(entry, "engine"));
    // An int8 engine can only ever have won in the int8 forward pool.
    if (engine == nullptr || !in_pool(*engine, *pass, *dtype) ||
        !engine->supports(cfg)) {
      continue;
    }
    memo_[make_key(cfg, *pass, *dtype)] =
        Decision{.engine = engine,
                 .engine_name = engine->name(),
                 .best_ms = number_or(entry, "best_ms", 0.0),
                 .baseline_ms = number_or(entry, "baseline_ms", 0.0),
                 .measured = true};
    ++kept;
  }
  return kept;
}

void Autotuner::persist_locked() {
  if (cache_path_.empty()) return;
  std::ofstream out(cache_path_);
  if (!out) return;
  out << cache_json_locked().dump_string(2) << '\n';
}

std::string Autotuner::set_cache_path(std::string path) {
  std::lock_guard lock(mutex_);
  std::string previous = std::move(cache_path_);
  cache_path_ = std::move(path);
  cache_loaded_ = cache_path_.empty();  // a new path loads on first use
  return previous;
}

std::vector<Autotuner::Entry> Autotuner::entries() {
  std::lock_guard lock(mutex_);
  std::vector<Entry> out;
  out.reserve(memo_.size());
  for (const auto& [key, decision] : memo_) {
    out.push_back({ConvConfig{key[0], key[1], key[2], key[3], key[4],
                              key[5], key[6], key[7]},
                   static_cast<Pass>(key[8]), static_cast<Dtype>(key[9]),
                   decision});
  }
  return out;
}

void Autotuner::clear() {
  std::lock_guard lock(mutex_);
  memo_.clear();
}

std::size_t Autotuner::size() {
  std::lock_guard lock(mutex_);
  return memo_.size();
}

int Autotuner::set_trials_for_testing(int trials) {
  std::lock_guard lock(mutex_);
  const int previous = trials_;
  trials_ = std::max(trials, 0);
  return previous;
}

const conv::ConvEngine& default_engine() {
  return conv::strategy_engine(conv::Strategy::kUnrolling);
}

}  // namespace gpucnn::tune
