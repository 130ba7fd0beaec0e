#include "core/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpucnn {
namespace {

// Set while a thread is executing pool work; nested parallel_for calls
// from inside a task run serially instead of deadlocking on the pool.
thread_local bool tls_in_pool_task = false;

// Chunks per dispatch: a few per worker so dynamic claiming can absorb
// uneven chunk costs, but few enough that the fetch_add per chunk stays
// negligible next to the work.
constexpr std::size_t kChunksPerWorker = 4;

obs::Counter& calls_counter() {
  static obs::Counter& c = obs::metrics().counter("core.parallel_for.calls");
  return c;
}
obs::Counter& caller_chunks_counter() {
  static obs::Counter& c =
      obs::metrics().counter("core.parallel_for.chunks_caller");
  return c;
}
obs::Counter& worker_chunks_counter() {
  static obs::Counter& c =
      obs::metrics().counter("core.parallel_for.chunks_worker");
  return c;
}
obs::Histogram& items_histogram() {
  static obs::Histogram& h =
      obs::metrics().histogram("core.parallel_for.items");
  return h;
}

}  // namespace

// One published dispatch. Lives on the calling thread's stack; workers
// only hold a pointer between attaching (under the pool mutex, while
// the job is still published) and detaching (refs drop), and the caller
// retires the job only after refs reaches zero.
struct ThreadPool::Job {
  ChunkFnRef body;
  std::size_t begin;
  std::size_t end;
  std::size_t chunk_len;  ///< nominal chunk length (last chunk clamps)
  std::size_t nchunks;
  std::atomic<std::size_t> next{0};  ///< next chunk index to claim
  std::atomic<std::size_t> done{0};  ///< chunks fully executed
  std::atomic<int> refs{0};          ///< threads currently inside the job
  std::exception_ptr first_error;    ///< guarded by the pool mutex

  // nchunks is re-derived from the rounded-up chunk length: asking for
  // 16 chunks of 100 items yields 15 chunks of 7 — never a trailing
  // chunk whose start would fall past `end`.
  Job(ChunkFnRef b, std::size_t lo, std::size_t hi, std::size_t chunks)
      : body(b),
        begin(lo),
        end(hi),
        chunk_len((hi - lo + chunks - 1) / chunks),
        nchunks((hi - lo + chunk_len - 1) / chunk_len) {}

  [[nodiscard]] bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= nchunks;
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads != 0 ? threads : std::thread::hardware_concurrency();
  n = std::max<std::size_t>(n, 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work_on(Job& job, bool caller) {
  const bool was_in_task = tls_in_pool_task;
  tls_in_pool_task = true;
  std::size_t executed = 0;
  std::exception_ptr error;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.nchunks) break;
    const std::size_t lo = job.begin + c * job.chunk_len;
    const std::size_t hi = std::min(lo + job.chunk_len, job.end);
    try {
      // One span per chunk on the executing thread's track, so a trace
      // shows how evenly the pool's workers are loaded.
      if (obs::tracer().enabled()) {
        obs::Span span(obs::tracer(),
                       "chunk[" + std::to_string(hi - lo) + "]", "core");
        job.body(lo, hi);
      } else {
        job.body(lo, hi);
      }
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    ++executed;
    job.done.fetch_add(1, std::memory_order_acq_rel);
  }
  tls_in_pool_task = was_in_task;
  if (executed > 0) {
    (caller ? caller_chunks_counter() : worker_chunks_counter())
        .add(static_cast<std::int64_t>(executed));
  }
  if (error) {
    const std::scoped_lock lock(mutex_);
    if (!job.first_error) job.first_error = error;
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] {
        return stop_ || (current_job_ != nullptr && !current_job_->exhausted());
      });
      if (stop_) return;
      job = current_job_;
      // Attach under the lock: the job cannot be retired while refs > 0.
      job->refs.fetch_add(1, std::memory_order_relaxed);
    }
    work_on(*job, /*caller=*/false);
    if (job->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last thread out: the caller may be waiting to retire the job.
      const std::scoped_lock lock(mutex_);
      job_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_chunks(std::size_t begin, std::size_t end,
                                     ChunkFnRef body) {
  if (begin >= end) return;
  if (tls_in_pool_task || workers_.size() == 1) {
    // Nested call from inside a pool task: run inline. The outer loop
    // already saturates the workers.
    body(begin, end);
    return;
  }

  const std::size_t total = end - begin;
  const std::size_t chunks =
      std::min(total, workers_.size() * kChunksPerWorker);
  Job job(body, begin, end, chunks);
  bool pool_busy = false;
  {
    const std::scoped_lock lock(mutex_);
    if (current_job_ != nullptr) {
      // Another caller thread already owns the pool; run this dispatch
      // inline rather than queueing behind it.
      pool_busy = true;
    } else {
      current_job_ = &job;
    }
  }
  if (pool_busy) {
    // The body runs after the lock is released — it may be arbitrarily
    // slow and must not block worker attach/detach or the owner's
    // retire wait. tls_in_pool_task is set so a nested parallel_for
    // from inside the body also runs inline instead of re-locking the
    // (non-recursive) pool mutex.
    const bool was_in_task = tls_in_pool_task;
    tls_in_pool_task = true;
    try {
      body(begin, end);
    } catch (...) {
      tls_in_pool_task = was_in_task;
      throw;
    }
    tls_in_pool_task = was_in_task;
    return;
  }
  work_ready_.notify_all();

  // Caller-runs: claim chunks alongside the workers.
  work_on(job, /*caller=*/true);

  {
    std::unique_lock lock(mutex_);
    job_done_.wait(lock, [&job] {
      return job.done.load(std::memory_order_acquire) == job.nchunks &&
             job.refs.load(std::memory_order_acquire) == 0;
    });
    // Retire under the same lock acquisition that observed refs == 0:
    // no worker can attach concurrently, so `job` may leave scope.
    current_job_ = nullptr;
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

namespace detail {

void parallel_for_impl(std::size_t begin, std::size_t end, ChunkFnRef body,
                       std::size_t serial_threshold) {
  if (end <= begin) return;
  if (end - begin < serial_threshold) {
    body(begin, end);
    return;
  }
  calls_counter().add(1);
  items_histogram().record(static_cast<double>(end - begin));
  if (obs::tracer().enabled()) {
    obs::Span span(obs::tracer(),
                   "parallel_for[" + std::to_string(end - begin) + "]",
                   "core");
    global_pool().parallel_for_chunks(begin, end, body);
  } else {
    global_pool().parallel_for_chunks(begin, end, body);
  }
}

}  // namespace detail

std::size_t parallel_width() {
  return tls_in_pool_task ? 1 : global_pool().size();
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         ChunkFnRef body) {
  if (end <= begin) return;
  calls_counter().add(1);
  items_histogram().record(static_cast<double>(end - begin));
  global_pool().parallel_for_chunks(begin, end, body);
}

}  // namespace gpucnn
