// Engine-rank probe: times every eligible conv engine on each distinct
// conv of the zoo's workloads and prints, per engine, how often it is
// the fastest and how far it trails the fastest elsewhere — the
// evidence for keeping or deleting an engine.
//
// Cases, each distinct (config, pass) once:
//   fp32 pool  the forward of every conv in GoogLeNet, MobileNet-v1 and
//              AlexNet at batch 1, and every LeNet-5 conv at batch 64 on
//              all three passes;
//   int8 pool  the batch-1 GoogLeNet and MobileNet-v1 forwards again,
//              with the int8 engines added to the candidates.
// Each time is Autotuner::measure_all's best of five runs after one
// warm-up, taken after three seconds of warming the pool. A sweep takes
// several minutes; run it on an otherwise idle machine.
//
// Run:  ./build/tools/engine_rank
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "nn/model_spec.hpp"
#include "tune/autotuner.hpp"

using namespace gpucnn;

namespace {

struct Workload {
  nn::ModelSpec spec;
  std::vector<tune::Pass> passes;
};

struct Pool {
  const char* title;
  std::vector<Workload> workloads;
  tune::Dtype dtype;
};

// Ratio to the fastest engine of every case the engine could run.
using Ratios = std::map<std::string, std::vector<double>>;

Ratios measure(const Pool& pool, std::size_t& cases) {
  auto& tuner = tune::Autotuner::instance();
  Ratios ratios;
  std::set<std::string> seen;
  for (const Workload& w : pool.workloads) {
    for (const nn::LayerSpec& layer : w.spec.layers) {
      if (layer.kind != nn::LayerSpec::Kind::kConv) continue;
      for (const tune::Pass pass : w.passes) {
        const std::string key =
            layer.conv.to_string() + std::string(tune::to_string(pass));
        if (!seen.insert(key).second) continue;
        const auto timings = tuner.measure_all(layer.conv, pass, pool.dtype);
        double best = 0.0;
        for (const auto& t : timings) {
          if (t.eligible && (best == 0.0 || t.ms < best)) best = t.ms;
        }
        for (const auto& t : timings) {
          if (t.eligible) {
            ratios[std::string(t.engine_name)].push_back(t.ms / best);
          }
        }
        ++cases;
      }
    }
  }
  return ratios;
}

void print(const Pool& pool) {
  std::size_t cases = 0;
  Ratios ratios = measure(pool, cases);
  std::printf("\n%s: %zu cases\n\n", pool.title, cases);
  std::printf(
      "| engine | cases it could run | fastest | within 10%% | median "
      "ratio | worst ratio |\n|---|---|---|---|---|---|\n");
  for (auto& [engine, r] : ratios) {
    std::sort(r.begin(), r.end());
    const auto fastest = std::count(r.begin(), r.end(), 1.0);
    const auto within = std::count_if(r.begin(), r.end(),
                                      [](double x) { return x <= 1.10; });
    const std::size_t n = r.size();
    const double median =
        n % 2 == 1 ? r[n / 2] : (r[n / 2 - 1] + r[n / 2]) / 2.0;
    std::printf("| `%s` | %zu | %td | %td | %.2fx | %.1fx |\n",
                engine.c_str(), n, fastest, within, median, r.back());
  }
}

}  // namespace

int main() {
  auto& tuner = tune::Autotuner::instance();
  (void)tuner.set_cache_path("");
  (void)tuner.set_trials_for_testing(5);

  // A short-lived process can run every pool thread on one core for a
  // while: warm up before timing.
  const ConvConfig warm = nn::googlenet(1).layers.front().conv;
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < std::chrono::seconds(3)) {
    (void)tuner.measure_all(warm, tune::Pass::kForward);
  }

  const std::vector<tune::Pass> forward = {tune::Pass::kForward};
  const std::vector<tune::Pass> training = {tune::Pass::kForward,
                                            tune::Pass::kBackwardData,
                                            tune::Pass::kBackwardFilter};
  print({"fp32 pool",
         {{nn::googlenet(1), forward},
          {nn::mobilenet_v1(1), forward},
          {nn::alexnet(1), forward},
          {nn::lenet5(64), training}},
         tune::Dtype::kF32});
  print({"int8 pool",
         {{nn::googlenet(1), forward}, {nn::mobilenet_v1(1), forward}},
         tune::Dtype::kInt8});
  return 0;
}
