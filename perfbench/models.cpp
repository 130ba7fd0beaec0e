// Whole-model benchmark. Runs one workload of the executable model
// zoo closed-loop — a single caller, each iteration starting when the
// previous one returned — for a fixed wall-clock window, checks every
// output, and prints one JSON result as the last line of stdout:
//
//   perfbench_models --workload NAME --seed N --seconds S --trace 0|1
//
//   {"correct": true, "attempted": 130, "failed": 0,
//    "metrics": {"latency_p50_ms": {"value": 74.1, "unit": "ms"}, ...}}
//
// --trace 0 times whole iterations through the library's own entry points
// (Network::forward, or forward + backward + Sgd::step) and reports the
// end-to-end metrics. --trace 1 drives the same prepared network through
// this file's own per-layer loop, timing a span around every top-level
// layer call, and reports the per-layer breakdown instead.
//
// The seed fixes the weights, the inputs and the training data; the
// library only ever sees the generated tensors.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "blas/gemm.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "nn/model_spec.hpp"
#include "nn/network.hpp"
#include "nn/sgd.hpp"
#include "nn/softmax.hpp"
#include "nn/synthetic_data.hpp"
#include "obs/metrics.hpp"
#include "tune/autotuner.hpp"

using namespace gpucnn;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

enum class Model { kLeNet, kMobileNet, kGoogLeNet };

enum class Mode {
  /// fp32 inference with every fast path on: conv+ReLU fusion,
  /// heuristic engine choice, prepacked weights, activation planner.
  kFast,
  /// fp32 inference on the static default engine (im2col + GEMM) with
  /// none of the fast paths — what an untuned caller gets.
  kStatic,
  /// One SGD training step: forward, backward, update.
  kTrain,
};

struct Workload {
  std::string_view name;
  Model model;
  std::size_t batch;
  Mode mode;
};

// Each workload runs a different set of layers and engines.
// googlenet-b1 is the latency path the inference optimisations target
// (Winograd and prepacked GEMM engines, LRN, inception modules).
// mobilenet-b1 runs the depthwise engine with the same fast paths, and
// mobilenet-b1-static runs the same model with none of them, so a change
// to fusion, tuning, prepacking or the planner should leave it unmoved.
// LeNet training is the only workload with backward passes and weight
// updates. The int8 path is not a workload: it runs almost entirely on
// the calling thread, so its time follows the per-CPU speed swings of a
// shared machine (1.3-1.4x between runs) rather than the program.
constexpr std::array kWorkloads = {
    Workload{"googlenet-b1", Model::kGoogLeNet, 1, Mode::kFast},
    Workload{"mobilenet-b1", Model::kMobileNet, 1, Mode::kFast},
    Workload{"mobilenet-b1-static", Model::kMobileNet, 1, Mode::kStatic},
    Workload{"lenet-b64-train", Model::kLeNet, 64, Mode::kTrain},
};

/// A run is split into rounds, each a fresh set-up followed by an equal
/// share of the window, so one run samples several set-ups and several
/// memory layouts of the model. The set-up time reported is the rounds'
/// median.
constexpr int kRounds = 8;
/// Distinct seeded inputs the inference loop cycles through, each also
/// checked against the reference.
constexpr std::size_t kProbes = 2;
/// Seeded training batches the training loop cycles through.
constexpr std::size_t kTrainBatches = 16;

nn::ModelSpec model_spec(Model m, std::size_t batch) {
  switch (m) {
    case Model::kLeNet:
      return nn::lenet5(batch);
    case Model::kMobileNet:
      return nn::mobilenet_v1(batch);
    case Model::kGoogLeNet:
      return nn::googlenet(batch);
  }
  return {};
}

std::unique_ptr<nn::Network> build(const Workload& w,
                                   conv::Strategy strategy) {
  return std::make_unique<nn::Network>(
      w.model == Model::kGoogLeNet
          ? nn::googlenet_network(strategy)
          : model_spec(w.model, w.batch).instantiate(strategy));
}

/// Everything a caller does between loading a model and its first
/// iteration: construct, initialise from the seed, and prepare the
/// workload's execution path.
std::unique_ptr<nn::Network> set_up(const Workload& w, std::uint64_t seed) {
  auto net = build(w, conv::Strategy::kUnrolling);
  Rng rng(seed);
  net->initialize(rng);
  switch (w.mode) {
    case Mode::kStatic:
      net->set_training(false);
      break;
    case Mode::kFast:
      net->fuse_conv_relu();
      net->enable_autotune(true);
      net->freeze_for_inference();
      net->set_memory_planning(true);
      break;
    case Mode::kTrain:
      net->fuse_conv_relu();
      net->enable_autotune(true);
      break;
  }
  return net;
}

/// The independent reference outputs are checked against: plain layers
/// on the direct engine — no fusion, tuning, packing or planning — with
/// the same seeded weights.
std::unique_ptr<nn::Network> reference(const Workload& w,
                                       std::uint64_t seed) {
  auto net = build(w, conv::Strategy::kDirect);
  Rng rng(seed);
  net->initialize(rng);
  net->set_training(w.mode == Mode::kTrain);
  return net;
}

/// Seeded (batch, channels, size, size) inputs, uniform in [-1, 1).
std::vector<Tensor> seeded_inputs(const Workload& w, std::uint64_t seed,
                                  std::size_t count) {
  const TensorShape shape = model_spec(w.model, w.batch).layers.front().input;
  Rng rng(seed ^ 0x5bd1e995ULL);  // a stream apart from the weights'
  std::vector<Tensor> out(count, Tensor(shape));
  for (Tensor& t : out) t.fill_uniform(rng, -1.0F, 1.0F);
  return out;
}

/// Labelled training batches drawn from the library's class-templated
/// synthetic dataset.
std::vector<nn::Batch> seeded_batches(const Workload& w,
                                      std::uint64_t seed) {
  const TensorShape shape = model_spec(w.model, w.batch).layers.front().input;
  nn::SyntheticDataset data(/*classes=*/10, shape.c, shape.h,
                            /*noise=*/0.35, seed);
  std::vector<nn::Batch> out;
  for (std::size_t i = 0; i < kTrainBatches; ++i) {
    out.push_back(data.sample(w.batch));
  }
  return out;
}

/// max |got - want| / max |want|; NaN when either holds a NaN, so callers
/// compare with !(err <= tol).
double rel_error(std::span<const float> got, std::span<const float> want) {
  if (got.size() != want.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double d = std::fabs(static_cast<double>(got[i]) - want[i]);
    if (std::isnan(d)) return d;
    diff = std::max(diff, d);
    scale = std::max(scale, std::fabs(static_cast<double>(want[i])));
  }
  return scale > 0.0 ? diff / scale : diff;
}

/// Samples whose argmax agrees between two same-shaped outputs.
std::size_t top1_matches(const Tensor& a, const Tensor& b) {
  const std::size_t n = a.shape().n;
  const std::size_t classes = a.count() / std::max<std::size_t>(n, 1);
  std::size_t same = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float* pa = a.raw() + i * classes;
    const float* pb = b.raw() + i * classes;
    if (std::max_element(pa, pa + classes) - pa ==
        std::max_element(pb, pb + classes) - pb) {
      ++same;
    }
  }
  return same;
}

/// Nearest rank: the smallest sample with at least q of the data at or
/// below it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

rusage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

/// Memory the process holds right now (resident pages of
/// /proc/self/statm).
double resident_mib() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

double cpu_seconds() {
  const rusage ru = usage();
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ---------------------------------------------------------------------------
// Per-layer tracing (--trace 1)

/// The layer groups the per-layer metrics report; every workload runs
/// all four, so none is structurally zero.
enum class Group { kConv, kPool, kFc, kOther };
constexpr std::size_t kGroups = 4;

std::size_t group_of(std::string_view type) {
  Group g = Group::kOther;  // lrn, relu, dropout, softmax
  if (type == "conv" || type == "inception") {
    g = Group::kConv;
  } else if (type == "pool") {
    g = Group::kPool;
  } else if (type == "fc") {
    g = Group::kFc;
  }
  return static_cast<std::size_t>(g);
}

/// Self time and computed bytes moved per group in one iteration.
struct LayerSample {
  std::array<double, kGroups> ms{};
  std::array<double, kGroups> bytes{};
};

/// One span around a layer call, charged to the layer's group together
/// with the bytes of the tensors the call touched (sizes read after the
/// call, which resizes its outputs). These spans never nest, so a
/// span's duration is its self time.
template <typename Fn>
void span(LayerSample& sample, const nn::Layer& layer,
          std::initializer_list<const Tensor*> touched, Fn&& call) {
  const auto start = Clock::now();
  call();
  const double ms = ms_since(start);
  const std::size_t g = group_of(layer.type());
  sample.ms[g] += ms;
  for (const Tensor* t : touched) {
    sample.bytes[g] += static_cast<double>(t->count() * sizeof(float));
  }
}

/// Network::forward's unplanned loop, one span per top-level layer.
const Tensor& traced_forward(nn::Network& net, const Tensor& input,
                             std::vector<Tensor>& acts,
                             LayerSample& sample) {
  acts.resize(net.size());
  const Tensor* current = &input;
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Layer& layer = net.layer(i);
    span(sample, layer, {current, &acts[i]},
         [&] { layer.forward(*current, acts[i]); });
    current = &acts[i];
  }
  return acts.back();
}

/// Network::backward's loop, one span per top-level layer.
void traced_backward(nn::Network& net, const Tensor& input,
                     const std::vector<Tensor>& acts, Tensor grad,
                     LayerSample& sample) {
  Tensor grad_in;
  for (std::size_t i = net.size(); i-- > 0;) {
    nn::Layer& layer = net.layer(i);
    const Tensor& in = i == 0 ? input : acts[i - 1];
    span(sample, layer, {&in, &grad, &grad_in},
         [&] { layer.backward(in, grad, grad_in); });
    std::swap(grad, grad_in);
  }
}

/// FLOPs of one iteration in the conv and FC groups, from the model
/// spec; a training step adds backward-data and backward-filter passes
/// of the forward's cost.
struct GroupFlops {
  double conv = 0.0, fc = 0.0;
};

GroupFlops group_flops(const Workload& w) {
  GroupFlops f;
  for (const auto& l : model_spec(w.model, w.batch).layers) {
    if (l.kind == nn::LayerSpec::Kind::kConv) f.conv += l.conv.forward_flops();
    if (l.kind == nn::LayerSpec::Kind::kFc) {
      f.fc += 2.0 * static_cast<double>(w.batch * l.fc_in * l.fc_out);
    }
  }
  const double passes = w.mode == Mode::kTrain ? 3.0 : 1.0;
  return {f.conv * passes, f.fc * passes};
}

/// This machine's dense fp32 ceiling as the library reaches it: GFLOP/s
/// of a 512^3 sgemm, best of many calls.
double measured_sgemm_gflops() {
  constexpr std::size_t n = 512;
  std::vector<float> a(n * n, 0.5F), b(n * n, 0.25F), c(n * n);
  double best_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 32; ++rep) {
    const auto start = Clock::now();
    blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, n, n, n, 1.0F, a, b,
                0.0F, c);
    best_ms = std::min(best_ms, ms_since(start));
  }
  return blas::gemm_flops(n, n, n) / (best_ms * 1e6);
}

// ---------------------------------------------------------------------------
// The run

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Options> parse(int argc, char** argv) {
  if (argc % 2 == 0) return std::nullopt;  // a flag without its value
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    const auto number = [&](auto& out) {
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), out);
      return ec == std::errc{} && ptr == value.data() + value.size();
    };
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (w.name == value) o.workload = &w;
      }
    } else if (flag == "--seed") {
      have_seed = number(o.seed);
    } else if (flag == "--seconds") {
      have_seconds = number(o.seconds) && o.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      o.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (o.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return o;
}

struct Metric {
  std::string_view name;
  double value;
  std::string_view unit;
};

struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

std::string to_json(const Result& r) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// Samples pooled over every round's window.
struct Window {
  std::vector<double> iter_ms;
  std::vector<LayerSample> layers;  ///< traced runs only
  std::size_t failed = 0;
  double seconds = 0.0;      ///< wall time inside the windows
  double cpu_seconds = 0.0;  ///< CPU time of all threads inside them
  double packed_bytes = 0.0;
  double dispatches = 0.0;
  std::vector<double> rss_mib;  ///< resident memory after each window
};

double counter(const char* name) {
  return static_cast<double>(obs::metrics().counter(name).value());
}

double sgemm_packed_bytes() {
  return counter("blas.sgemm.bytes_packed_a") +
         counter("blas.sgemm.bytes_packed_b");
}

class Runner {
 public:
  explicit Runner(const Options& o) : o_(o), w_(*o.workload) {
    if (w_.mode != Mode::kTrain) probes_ = seeded_inputs(w_, o_.seed, kProbes);
  }

  Result run() {
    for (int round = 0; round < kRounds; ++round) {
      set_up_once();
      warm_up();
      measure(o_.seconds / kRounds);
    }
    // Before the reference check, so memory covers the workload alone.
    // The kernel's high-water mark can trail the current RSS.
    const double peak_rss =
        std::max(*std::max_element(window_.rss_mib.begin(),
                                   window_.rss_mib.end()),
                 static_cast<double>(usage().ru_maxrss) / 1024.0);
    if (w_.mode == Mode::kTrain) {
      check_training_step();
      check_learning();
    } else {
      check_inference();
    }

    Result r;
    r.correct = correct_ && window_.failed == 0;
    r.attempted = window_.iter_ms.size();
    r.failed = window_.failed;
    // The ceiling is measured after the window, with the pool's threads
    // as warm as the layers found them.
    r.metrics = o_.trace ? per_layer_metrics(measured_sgemm_gflops())
                         : end_to_end_metrics(peak_rss);
    std::cerr << "perfbench: " << w_.name << " seed " << o_.seed << ": "
              << r.attempted << " iterations, " << r.failed
              << " failed, max error vs reference " << ref_error_ << "\n";
    return r;
  }

 private:
  /// One timed set-up, up to the first result: a training set-up also
  /// draws its dataset, and the first iteration is included so that work
  /// moved from set-up into lazy first use still counts as set-up.
  void set_up_once() {
    sgd_.reset();
    net_.reset();  // never hold two copies of the model
    const auto start = Clock::now();
    if (w_.mode == Mode::kTrain) batches_ = seeded_batches(w_, o_.seed);
    net_ = set_up(w_, o_.seed);
    if (w_.mode == Mode::kTrain) sgd_.emplace(*net_, kSgd);
    iterate(0);
    setup_s_.push_back(ms_since(start) / 1000.0);
  }

  /// Lazy first-use work (engine choice, scratch arenas, optimizer
  /// state) happens here, outside the window. The first round also
  /// records each probe's output, which every window must reproduce.
  void warm_up() {
    for (std::size_t i = 0; i < kProbes; ++i) {
      iterate(i);
      if (w_.mode != Mode::kTrain && golden_.size() < kProbes) {
        golden_.push_back(*output_);
      }
    }
    losses_.emplace_back();
  }

  /// Iterates for `seconds`, adding every sample to the pooled window.
  void measure(double seconds) {
    const double cpu0 = cpu_seconds();
    const double packed0 = sgemm_packed_bytes();
    const double dispatch0 = counter("core.parallel_for.calls");
    const auto start = Clock::now();
    for (std::size_t i = 0; ms_since(start) < seconds * 1000.0; ++i) {
      LayerSample sample;
      const auto t0 = Clock::now();
      if (o_.trace) {
        iterate_traced(i, sample);
      } else {
        iterate(i);
      }
      window_.iter_ms.push_back(ms_since(t0));
      if (o_.trace) window_.layers.push_back(sample);
      if (!iteration_ok(i)) ++window_.failed;
    }
    window_.seconds += ms_since(start) / 1000.0;
    window_.cpu_seconds += cpu_seconds() - cpu0;
    window_.packed_bytes += sgemm_packed_bytes() - packed0;
    window_.dispatches += counter("core.parallel_for.calls") - dispatch0;
    window_.rss_mib.push_back(resident_mib());
  }

  /// One iteration through the library's own entry points.
  void iterate(std::size_t i) {
    if (w_.mode != Mode::kTrain) {
      output_ = &net_->forward(probes_[i % kProbes]);
      return;
    }
    const nn::Batch& batch = batches_[i % kTrainBatches];
    net_->zero_grad();
    const Tensor& probs = net_->forward(batch.images);
    loss_ = nn::cross_entropy_loss(probs, batch.labels);
    nn::cross_entropy_prob_grad(probs, batch.labels, grad_);
    net_->backward(grad_);
    sgd_->step();
  }

  /// The same iteration through the per-layer loop.
  void iterate_traced(std::size_t i, LayerSample& sample) {
    if (w_.mode != Mode::kTrain) {
      output_ = &traced_forward(*net_, probes_[i % kProbes], acts_, sample);
      return;
    }
    const nn::Batch& batch = batches_[i % kTrainBatches];
    net_->zero_grad();
    const Tensor& probs = traced_forward(*net_, batch.images, acts_, sample);
    loss_ = nn::cross_entropy_loss(probs, batch.labels);
    nn::cross_entropy_prob_grad(probs, batch.labels, grad_);
    traced_backward(*net_, batch.images, acts_, grad_, sample);
    sgd_->step();
  }

  /// Inference must reproduce the output the first set-up gave for the
  /// same input; a training step's loss must be finite.
  bool iteration_ok(std::size_t i) {
    if (w_.mode == Mode::kTrain) {
      losses_.back().push_back(loss_);
      return std::isfinite(loss_);
    }
    return rel_error(output_->data(), golden_[i % kProbes].data()) <= 1e-5;
  }

  /// Every golden output against the reference: the engines differ from
  /// direct convolution only by rounding, so every sample keeps its
  /// top-1 class.
  void check_inference() {
    auto ref = reference(w_, o_.seed);
    for (std::size_t p = 0; p < kProbes; ++p) {
      const Tensor& want = ref->forward(probes_[p]);
      const double err = rel_error(golden_[p].data(), want.data());
      ref_error_ = std::max(ref_error_, err);
      if (!(err <= 1e-3) || top1_matches(golden_[p], want) != want.shape().n) {
        correct_ = false;
      }
    }
  }

  /// One step of a freshly set-up network against the reference on the
  /// same weights and batch: the loss and every parameter gradient.
  void check_training_step() {
    auto net = set_up(w_, o_.seed);
    auto ref = reference(w_, o_.seed);
    const nn::Batch& batch = batches_.front();
    std::array<double, 2> loss{};
    std::array<nn::Network*, 2> nets = {net.get(), ref.get()};
    for (std::size_t k = 0; k < 2; ++k) {
      nets[k]->zero_grad();
      const Tensor& probs = nets[k]->forward(batch.images);
      loss[k] = nn::cross_entropy_loss(probs, batch.labels);
      Tensor grad;
      nn::cross_entropy_prob_grad(probs, batch.labels, grad);
      nets[k]->backward(grad);
    }
    ref_error_ = std::fabs(loss[0] - loss[1]) / std::fabs(loss[1]);
    const auto got = net->gradients();
    const auto want = ref->gradients();
    if (got.size() != want.size()) correct_ = false;
    for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
      ref_error_ =
          std::max(ref_error_, rel_error(got[i]->data(), want[i]->data()));
    }
    if (!(ref_error_ <= 1e-3)) correct_ = false;
  }

  /// Training must learn: over the rounds, each of which trains a fresh
  /// network, the mean loss of a window's last quarter of steps is below
  /// that of its first quarter. Windows too short to have quarters are
  /// not judged.
  void check_learning() {
    double head = 0.0, tail = 0.0;
    for (const auto& round : losses_) {
      const std::size_t q = round.size() / 4;
      for (std::size_t i = 0; i < q; ++i) {
        head += round[i];
        tail += round[round.size() - 1 - i];
      }
    }
    if (head > 0.0 && !(tail < head)) correct_ = false;
  }

  std::vector<Metric> end_to_end_metrics(double peak_rss) const {
    const auto n = static_cast<double>(window_.iter_ms.size());
    return {
        {"latency_p50_ms", percentile(window_.iter_ms, 0.5), "ms"},
        {"latency_p90_ms", percentile(window_.iter_ms, 0.9), "ms"},
        {"throughput", n * static_cast<double>(w_.batch) / window_.seconds,
         "samples/s"},
        {"cpu_ms_per_iter", window_.cpu_seconds * 1000.0 / n, "ms"},
        {"setup_s", median(setup_s_), "s"},
        {"rss_mb", median(window_.rss_mib), "MiB"},
        {"peak_rss_mb", peak_rss, "MiB"},
    };
  }

  std::vector<Metric> per_layer_metrics(double peak_gflops) const {
    // Per group: the median iteration's self time, and bytes over time
    // across the whole window.
    std::array<double, kGroups> ms{}, gbps{};
    for (std::size_t g = 0; g < kGroups; ++g) {
      std::vector<double> per_iter;
      double total_ms = 0.0, total_bytes = 0.0;
      for (const auto& s : window_.layers) {
        per_iter.push_back(s.ms[g]);
        total_ms += s.ms[g];
        total_bytes += s.bytes[g];
      }
      ms[g] = median(per_iter);
      gbps[g] = total_bytes / (total_ms * 1e6);
    }
    const auto at = [](Group g) { return static_cast<std::size_t>(g); };
    const GroupFlops flops = group_flops(w_);
    const double conv_gflops = flops.conv / (ms[at(Group::kConv)] * 1e6);
    const auto n = static_cast<double>(window_.iter_ms.size());
    return {
        {"conv_ms", ms[at(Group::kConv)], "ms"},
        {"pool_ms", ms[at(Group::kPool)], "ms"},
        {"fc_ms", ms[at(Group::kFc)], "ms"},
        {"other_ms", ms[at(Group::kOther)], "ms"},
        {"traced_iter_ms", median(window_.iter_ms), "ms"},
        {"conv_gflops", conv_gflops, "GFLOP/s"},
        {"conv_peak_frac", conv_gflops / peak_gflops, "ratio"},
        {"fc_gflops", flops.fc / (ms[at(Group::kFc)] * 1e6), "GFLOP/s"},
        {"pool_gbps", gbps[at(Group::kPool)], "GB/s"},
        {"other_gbps", gbps[at(Group::kOther)], "GB/s"},
        {"sgemm_packed_mib_per_iter",
         window_.packed_bytes / (n * 1048576.0), "MiB"},
        {"dispatches_per_iter", window_.dispatches / n, "count"},
    };
  }

  static constexpr nn::SgdOptions kSgd{
      .learning_rate = 0.03, .momentum = 0.9, .weight_decay = 1e-4};

  const Options o_;
  const Workload& w_;
  std::vector<Tensor> probes_, golden_;
  std::vector<nn::Batch> batches_;
  std::unique_ptr<nn::Network> net_;
  std::optional<nn::Sgd> sgd_;
  const Tensor* output_ = nullptr;  ///< the last inference output
  double loss_ = 0.0;               ///< the last training step's loss
  Tensor grad_;
  std::vector<Tensor> acts_;
  Window window_;
  std::vector<double> setup_s_;
  std::vector<std::vector<double>> losses_;  ///< per round
  double ref_error_ = 0.0;
  bool correct_ = true;
};

}  // namespace

int main(int argc, char** argv) try {
  const auto options = parse(argc, argv);
  if (!options.has_value()) {
    std::cerr << "usage: perfbench_models --workload NAME --seed N"
                 " --seconds S --trace 0|1\nworkloads:";
    for (const auto& w : kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
  }
  tune::Autotuner::instance().set_mode(tune::Mode::kHeuristic);
  const Result result = Runner(*options).run();
  std::cout << to_json(result) << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench_models: " << e.what() << '\n';
  return 1;
}
