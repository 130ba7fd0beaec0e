#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "core/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpucnn::serve {
namespace {

/// Raises an atomic maximum (relaxed; stats only).
void raise_max(std::atomic<std::size_t>& target, std::size_t value) {
  std::size_t seen = target.load(std::memory_order_relaxed);
  while (seen < value &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

InferenceServer::InferenceServer(
    const std::function<nn::Network()>& make_network, ServerOptions options)
    : options_(options),
      prototype_(make_network()),
      queue_(options.batch) {
  check(options_.workers >= 1, "InferenceServer needs at least one worker");
  check(options_.input.c * options_.input.h * options_.input.w > 0,
        "ServerOptions.input must name the request image shape");

  prototype_.set_training(false);
  if (options_.fuse_conv_relu) prototype_.fuse_conv_relu();
  // Tuned like the instances, so freezing packs each conv for the engine
  // the instances' forwards pick.
  prototype_.enable_autotune(options_.autotune);
  Rng rng(options_.seed);
  prototype_.initialize(rng);
  // Pack the prototype's weights once; every instance then aliases the
  // packed panels through share_parameters (one packed copy per server).
  prototype_.freeze_for_inference();

  // Synthetic calibration set for --int8: the load generator draws
  // request images uniform in [-1, 1], so calibrating on the same
  // distribution gives every instance a representative activation range.
  std::vector<Tensor> calibration;
  if (options_.int8) {
    Rng calib_rng(options_.seed + 1);
    calibration.resize(options_.int8_calibration_batches);
    for (auto& t : calibration) {
      t.resize({1, options_.input.c, options_.input.h, options_.input.w});
      t.fill_uniform(calib_rng, -1.0F, 1.0F);
    }
  }

  instances_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    nn::Network net = make_network();
    net.set_training(false);
    if (options_.fuse_conv_relu) net.fuse_conv_relu();
    net.enable_autotune(options_.autotune);
    auto instance = std::make_unique<ModelInstance>(
        std::move(net), prototype_, options_.memory_planning);
    if (options_.int8) {
      (void)instance->network().quantize(calibration);
      // Quantization replaced the conv layers after weight sharing; the
      // new int8 layers pack their own quantized weights here.
      instance->network().freeze_for_inference();
    }
    instances_.push_back(std::move(instance));
  }
  obs::metrics().gauge("serve.workers")
      .set(static_cast<double>(options_.workers));
  obs::metrics().gauge("serve.int8").set(options_.int8 ? 1.0 : 0.0);

  if (options_.warmup) warmup_instances();

  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::warmup_instances() {
  // Warm-up forwards run before any worker thread exists, so instances
  // can be driven directly. Instance 0 sweeps every batch size the
  // dynamic batcher can realize — with autotuning on, each sweep step
  // pays that shape's measurement cost here, once, instead of inside a
  // served request. The remaining instances run one max-batch forward:
  // the autotune memo is process-wide (already primed), so they only
  // need their own activation arenas sized.
  const TensorShape in = options_.input;
  Rng rng(options_.seed + 2);
  Tensor image;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const std::size_t lo = i == 0 ? 1 : options_.batch.max_batch;
    for (std::size_t b = lo; b <= options_.batch.max_batch; ++b) {
      image.resize({b, in.c, in.h, in.w});
      image.fill_uniform(rng, -1.0F, 1.0F);
      (void)instances_[i]->run(image);
    }
  }
  obs::metrics().counter("serve.warmup.forwards")
      .add(static_cast<std::int64_t>(options_.batch.max_batch +
                                     instances_.size() - 1));
}

std::future<Tensor> InferenceServer::submit(const Tensor& image) {
  const TensorShape& s = image.shape();
  check(s.n == 1 && s.c == options_.input.c && s.h == options_.input.h &&
            s.w == options_.input.w,
        "submit: image shape does not match the served model's input");
  try {
    std::future<Tensor> future = queue_.submit(image);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    return future;
  } catch (const Error&) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("serve.requests.rejected").add(1);
    throw;
  }
}

void InferenceServer::shutdown() {
  {
    const std::scoped_lock lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.close();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void InferenceServer::worker_loop(std::size_t index) {
  ModelInstance& instance = *instances_[index];
  std::vector<Request> batch;
  while (queue_.collect(batch)) {
    run_batch(instance, batch);
  }
}

void InferenceServer::run_batch(ModelInstance& instance,
                                std::vector<Request>& batch) {
  auto& m = obs::metrics();
  const std::size_t b = batch.size();
  const TensorShape in = options_.input;
  const std::size_t image_floats = in.c * in.h * in.w;

  obs::Span span(obs::tracer(), "serve.batch[" + std::to_string(b) + "]",
                 "serve");
  const double collected_us =
      obs::tracer().enabled() ? obs::tracer().now_us() : 0.0;

  Tensor input(b, in.c, in.h, in.w);
  for (std::size_t i = 0; i < b; ++i) {
    std::memcpy(input.plane(i, 0), batch[i].input.raw(),
                image_floats * sizeof(float));
  }

  Timer compute;
  const Tensor* output = nullptr;
  try {
    obs::Span forward(obs::tracer(), "serve.forward", "serve");
    output = &instance.run(input);
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (Request& req : batch) req.response.set_exception(error);
    failed_.fetch_add(static_cast<std::int64_t>(b),
                      std::memory_order_relaxed);
    m.counter("serve.requests.failed").add(static_cast<std::int64_t>(b));
    return;
  }
  const double compute_us = compute.elapsed_us();
  m.histogram("serve.compute_us").record(compute_us);

  const TensorShape out = output->shape();
  check(out.n == b, "served network changed the batch dimension");
  const std::size_t result_floats = out.c * out.h * out.w;
  const auto now = std::chrono::steady_clock::now();
  const bool tracing = obs::tracer().enabled();
  const std::uint32_t track =
      tracing ? obs::tracer().virtual_track("serve:requests") : 0;

  for (std::size_t i = 0; i < b; ++i) {
    Tensor result(1, out.c, out.h, out.w);
    std::memcpy(result.raw(), output->plane(i, 0),
                result_floats * sizeof(float));
    const double latency_us =
        std::chrono::duration<double, std::micro>(now - batch[i].enqueued)
            .count();
    latency_.record(latency_us);
    m.histogram("serve.latency_us").record(latency_us);
    if (tracing) {
      // Per-request events: the whole submit->response interval and the
      // queue-wait prefix. Concurrent requests overlap on this track by
      // design; validate_export.py relaxes nesting for serve:* tracks
      // when the manifest carries a run.serve annotation.
      const double done_us = obs::tracer().now_us();
      obs::TraceArgs args{{"id", std::to_string(batch[i].id)},
                          {"batch", std::to_string(b)}};
      obs::tracer().complete_event(track, "request", "serve.request",
                                   batch[i].submit_us,
                                   done_us - batch[i].submit_us, args);
      obs::tracer().complete_event(track, "queue", "serve.queue",
                                   batch[i].submit_us,
                                   collected_us - batch[i].submit_us,
                                   std::move(args));
    }
    batch[i].response.set_value(std::move(result));
  }
  completed_.fetch_add(static_cast<std::int64_t>(b),
                       std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(static_cast<std::int64_t>(b),
                              std::memory_order_relaxed);
  raise_max(max_batch_, b);
  m.counter("serve.requests.completed").add(static_cast<std::int64_t>(b));
}

ServerStats InferenceServer::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  const std::int64_t in_batches =
      batched_requests_.load(std::memory_order_relaxed);
  s.mean_batch = s.batches > 0 ? static_cast<double>(in_batches) /
                                     static_cast<double>(s.batches)
                               : 0.0;
  s.max_batch_observed = max_batch_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.depth();
  s.latency = latency_.summary();
  return s;
}

std::vector<double> InferenceServer::take_latencies_us() {
  return latency_.take();
}

}  // namespace gpucnn::serve
