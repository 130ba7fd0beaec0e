// Serving runtime: batching policy edge cases, shutdown draining,
// concurrent submitters, weight sharing and the latency summary math.
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "nn/activation_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/fc_layer.hpp"
#include "nn/model_spec.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "serve/latency.hpp"
#include "serve/model_instance.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "tune/autotuner.hpp"

namespace gpucnn::serve {
namespace {

using namespace std::chrono_literals;

Tensor image(std::size_t c, std::size_t h, std::size_t w, float value) {
  Tensor t(1, c, h, w);
  t.fill(value);
  return t;
}

/// A tiny deterministic model: one FC layer over a 4-element input.
nn::Network tiny_network() {
  nn::Network net;
  net.emplace<nn::FcLayer>("fc", /*in=*/4, /*out=*/3);
  net.emplace<nn::ActivationLayer>("relu", nn::Activation::kRelu);
  return net;
}

ServerOptions tiny_options() {
  ServerOptions opts;
  opts.workers = 2;
  opts.batch = {.max_batch = 4, .max_delay_us = 1000};
  opts.input = {1, 1, 2, 2};
  opts.memory_planning = true;
  return opts;
}

// ---------------------------------------------------------------- queue

TEST(RequestQueue, BatchClosesOnSizeBeforeDeadline) {
  // A day-long latency budget: only the size trigger can close a batch
  // promptly, so a fast collect proves the size path.
  RequestQueue queue({.max_batch = 4, .max_delay_us = 86'400'000'000LL});
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(queue.submit(image(1, 2, 2, static_cast<float>(i))));
  }
  std::vector<Request> batch;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(queue.collect(batch));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch.size(), 4U);
  EXPECT_LT(elapsed, 10s);  // far below the (absurd) deadline
  EXPECT_EQ(queue.depth(), 0U);
}

TEST(RequestQueue, SizeTriggerNeverOvershootsMaxBatch) {
  RequestQueue queue({.max_batch = 3, .max_delay_us = 86'400'000'000LL});
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(queue.submit(image(1, 2, 2, 0.0F)));
  }
  std::vector<Request> batch;
  ASSERT_TRUE(queue.collect(batch));
  EXPECT_EQ(batch.size(), 3U);
  ASSERT_TRUE(queue.collect(batch));
  EXPECT_EQ(batch.size(), 3U);
  // The 2 leftovers are below max_batch and their deadline is a day
  // out, so only close() releases them (as a final short batch).
  queue.close();
  ASSERT_TRUE(queue.collect(batch));
  EXPECT_EQ(batch.size(), 2U);
  EXPECT_EQ(queue.depth(), 0U);
}

TEST(RequestQueue, DeadlineFiresWithSingleRequest) {
  RequestQueue queue({.max_batch = 64, .max_delay_us = 5000});
  auto future = queue.submit(image(1, 2, 2, 1.0F));
  std::vector<Request> batch;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(queue.collect(batch));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch.size(), 1U);
  // The batch must have waited out (approximately) the latency budget —
  // it cannot close instantly on size with 63 slots still free.
  EXPECT_GE(waited, 4ms);
}

TEST(RequestQueue, CollectBlocksUntilCloseOnEmptyQueue) {
  RequestQueue queue({.max_batch = 4, .max_delay_us = 100});
  std::atomic<bool> returned{false};
  std::thread collector([&] {
    std::vector<Request> batch;
    EXPECT_FALSE(queue.collect(batch));
    EXPECT_TRUE(batch.empty());
    returned = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(returned.load());  // empty + open: collect must block
  queue.close();
  collector.join();
  EXPECT_TRUE(returned.load());
}

TEST(RequestQueue, ShutdownDrainsInFlightRequests) {
  RequestQueue queue({.max_batch = 4, .max_delay_us = 86'400'000'000LL});
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 10; ++i) {  // not a multiple of max_batch
    futures.push_back(queue.submit(image(1, 2, 2, 0.0F)));
  }
  queue.close();
  std::size_t drained = 0;
  std::vector<Request> batch;
  while (queue.collect(batch)) {
    EXPECT_LE(batch.size(), 4U);
    drained += batch.size();
  }
  EXPECT_EQ(drained, 10U);
  EXPECT_EQ(queue.depth(), 0U);
}

TEST(RequestQueue, SubmitAfterCloseThrows) {
  RequestQueue queue({.max_batch = 2, .max_delay_us = 100});
  queue.close();
  EXPECT_THROW((void)queue.submit(image(1, 2, 2, 0.0F)), Error);
}

TEST(RequestQueue, ConcurrentCollectorsPartitionTheQueue) {
  RequestQueue queue({.max_batch = 8, .max_delay_us = 500});
  constexpr int kRequests = 200;
  std::atomic<std::size_t> collected{0};
  std::vector<std::thread> collectors;
  for (int t = 0; t < 3; ++t) {
    collectors.emplace_back([&] {
      std::vector<Request> batch;
      while (queue.collect(batch)) collected += batch.size();
    });
  }
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(queue.submit(image(1, 2, 2, 0.0F)));
  }
  queue.close();
  for (auto& c : collectors) c.join();
  EXPECT_EQ(collected.load(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(queue.depth(), 0U);
}

// --------------------------------------------------------------- server

TEST(InferenceServer, RespondsAndMatchesPrototypeReference) {
  InferenceServer server(tiny_network, tiny_options());
  std::vector<std::future<Tensor>> futures;
  std::vector<Tensor> inputs;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(image(1, 2, 2, 0.25F * static_cast<float>(i - 4)));
    futures.push_back(server.submit(inputs.back()));
  }
  std::vector<Tensor> responses;
  for (auto& f : futures) responses.push_back(f.get());
  server.shutdown();

  // Each response must equal the prototype's single-image forward on
  // that exact input: proves no request was mixed up, lost or batched
  // into the wrong row.
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Tensor& expected = server.prototype().forward(inputs[i]);
    EXPECT_LE(max_abs_diff(responses[i], expected), 1e-5)
        << "response " << i << " does not match its input's reference";
  }
}

TEST(InferenceServer, ConcurrentSubmittersNeverLoseOrDuplicate) {
  ServerOptions opts = tiny_options();
  opts.workers = 3;
  opts.batch = {.max_batch = 5, .max_delay_us = 200};
  InferenceServer server(tiny_network, opts);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // A value unique to (thread, index): a response computed from a
        // different request's input cannot match its own reference.
        const float v = static_cast<float>(t * kPerThread + i) * 0.01F;
        const Tensor in = image(1, 2, 2, v);
        Tensor out = server.submit(in).get();
        nn::Network reference = tiny_network();
        // Weights are deterministic functions of the seed; rebuild and
        // share against the server's prototype for an aligned copy.
        reference.set_training(false);
        reference.share_parameters(server.prototype());
        if (max_abs_diff(out, reference.forward(in)) > 1e-5) ++mismatches;
      }
    });
  }
  for (auto& s : submitters) s.join();
  server.shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.queue_depth, 0U);
  EXPECT_EQ(static_cast<std::size_t>(stats.latency.count),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_GE(stats.batches, (kThreads * kPerThread + 4) / 5);
}

TEST(InferenceServer, ShutdownDrainsThenRejects) {
  ServerOptions opts = tiny_options();
  opts.batch = {.max_batch = 64, .max_delay_us = 50'000};
  InferenceServer server(tiny_network, opts);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 7; ++i) {
    futures.push_back(server.submit(image(1, 2, 2, 1.0F)));
  }
  server.shutdown();  // drains the 7 queued requests before joining
  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  EXPECT_THROW((void)server.submit(image(1, 2, 2, 0.0F)), Error);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 7);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.queue_depth, 0U);
}

TEST(InferenceServer, RejectsWrongInputShape) {
  InferenceServer server(tiny_network, tiny_options());
  EXPECT_THROW((void)server.submit(Tensor(1, 3, 2, 2)), Error);
  EXPECT_THROW((void)server.submit(Tensor(2, 1, 2, 2)), Error);
  server.shutdown();
}

TEST(InferenceServer, ServesModelZooLeNetBatched) {
  ServerOptions opts;
  opts.workers = 2;
  opts.batch = {.max_batch = 8, .max_delay_us = 2000};
  opts.input = {1, 1, 32, 32};
  InferenceServer server([] { return nn::lenet5(1).instantiate(); }, opts);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(
        server.submit(image(1, 32, 32, 0.1F * static_cast<float>(i))));
  }
  for (auto& f : futures) {
    const Tensor out = f.get();
    EXPECT_EQ(out.shape(), (TensorShape{1, 10, 1, 1}));
    // Softmax output: probabilities sum to ~1.
    EXPECT_NEAR(out.sum(), 1.0, 1e-4);
  }
  server.shutdown();
  EXPECT_GE(server.stats().max_batch_observed, 1U);
}

TEST(InferenceServer, AutotunedInstancesRunTheirConvsPrepacked) {
  // The static engine (fft) has no prepacked path, but every instance
  // forward runs the tuner's pick; the prototype must pack for that pick
  // so the instances adopt a pack they can consume.
  auto& tuner = tune::Autotuner::instance();
  const tune::Mode mode_before = tuner.mode();
  const std::string path_before = tuner.set_cache_path("");
  tuner.set_mode(tune::Mode::kHeuristic);
  const ConvConfig geometry{.batch = 1, .input = 16, .channels = 8,
                            .filters = 16, .kernel = 3, .stride = 1,
                            .pad = 1};
  const auto make = [&] {
    nn::Network net;
    net.emplace<nn::ConvLayer>("conv", geometry, conv::Strategy::kFft);
    net.emplace<nn::ActivationLayer>("relu", nn::Activation::kRelu);
    net.emplace<nn::FcLayer>("fc", 16 * 16 * 16, 10);
    return net;
  };
  ServerOptions opts;
  opts.workers = 1;
  opts.batch = {.max_batch = 1, .max_delay_us = 100};
  opts.input = {1, 8, 16, 16};
  opts.autotune = true;
  opts.warmup = false;
  {
    InferenceServer server(make, opts);
    const auto& conv_layer =
        dynamic_cast<const nn::ConvLayer&>(server.prototype().layer(0));
    const conv::ConvEngine* tuned =
        tuner.choose(geometry, tune::Pass::kForward);
    ASSERT_NE(tuned, nullptr);
    ASSERT_NE(conv_layer.prepacked(), nullptr)
        << "the prototype packed nothing for the tuned engine";
    EXPECT_EQ(conv_layer.prepacked()->format, tuned->name());

    auto& packed_a = obs::metrics().counter("blas.sgemm.bytes_packed_a");
    auto& hits = obs::metrics().counter("blas.sgemm.prepack_hits");
    const std::int64_t packed_before = packed_a.value();
    const std::int64_t hits_before = hits.value();
    (void)server.submit(image(8, 16, 16, 0.5F)).get();
    server.shutdown();
    EXPECT_EQ(packed_a.value(), packed_before)
        << "an instance re-packed conv weights per request";
    EXPECT_GT(hits.value(), hits_before);
  }
  tuner.clear();
  (void)tuner.set_cache_path(path_before);
  tuner.set_mode(mode_before);
}

// ------------------------------------------------------ weight sharing

TEST(ShareParameters, BindsViewsOverOwnerStorage) {
  nn::Network owner = tiny_network();
  Rng rng(3);
  owner.initialize(rng);
  nn::Network sharer = tiny_network();
  sharer.share_parameters(owner);

  const auto owner_params = owner.parameters();
  const auto shared_params = sharer.parameters();
  ASSERT_EQ(owner_params.size(), shared_params.size());
  for (std::size_t i = 0; i < owner_params.size(); ++i) {
    EXPECT_TRUE(shared_params[i]->is_view());
    EXPECT_EQ(shared_params[i]->raw(), owner_params[i]->raw())
        << "parameter " << i << " was copied, not shared";
  }

  // Identical outputs without ever initialising the sharer.
  const Tensor in = image(1, 2, 2, 0.5F);
  Tensor a = owner.forward(in);
  const Tensor& b = sharer.forward(in);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

TEST(ShareParameters, RejectsStructurallyDifferentNetworks) {
  nn::Network owner = tiny_network();
  Rng rng(3);
  owner.initialize(rng);
  nn::Network other;
  other.emplace<nn::FcLayer>("fc", 4, 5);
  EXPECT_THROW(other.share_parameters(owner), Error);
}

TEST(ModelInstance, RunsPlannedForwardOverSharedWeights) {
  nn::Network owner = tiny_network();
  owner.set_training(false);
  Rng rng(11);
  owner.initialize(rng);
  ModelInstance instance(tiny_network(), owner, /*memory_planning=*/true);
  Tensor batch(3, 1, 2, 2);
  batch.fill(0.5F);
  const Tensor& out = instance.run(batch);
  EXPECT_EQ(out.shape().n, 3U);
  EXPECT_EQ(instance.batches_run(), 1U);
  // Planned forward: the instance's network reports arena savings.
  EXPECT_GT(instance.network().planned_activation_bytes(), 0U);
}

// ----------------------------------------------------------- latencies

TEST(LatencySummary, NearestRankPercentiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  const LatencySummary s = summarize_latencies(samples);
  EXPECT_EQ(s.count, 100U);
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_us, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_us, 50.5);
}

TEST(LatencySummary, EmptyAndSingle) {
  EXPECT_EQ(summarize_latencies({}).count, 0U);
  const LatencySummary s = summarize_latencies({42.0});
  EXPECT_EQ(s.count, 1U);
  EXPECT_DOUBLE_EQ(s.p50_us, 42.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 42.0);
}

TEST(LatencyRecorder, TakeDrainsSamples) {
  LatencyRecorder recorder;
  recorder.record(1.0);
  recorder.record(2.0);
  EXPECT_EQ(recorder.count(), 2U);
  const auto taken = recorder.take();
  EXPECT_EQ(taken.size(), 2U);
  EXPECT_EQ(recorder.count(), 0U);
  EXPECT_EQ(recorder.summary().count, 0U);
}

}  // namespace
}  // namespace gpucnn::serve
