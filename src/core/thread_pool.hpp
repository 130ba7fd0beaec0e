// A small fixed-size thread pool with a low-overhead chunked parallel_for.
//
// The numeric kernels (GEMM, FFT batches, im2col, direct convolution) are
// data-parallel over independent ranges; parallel_for dispatches the range
// to worker threads and joins before returning. The pool is created once
// per process (see global_pool()) so kernels never pay thread start-up
// costs on the hot path.
//
// Dispatch design (the part that matters for fine-grained loops):
//   * Bodies are passed by lightweight non-owning reference
//     (ChunkFnRef — a {void*, fn*} pair), never std::function, so a
//     dispatch performs no heap allocation and no virtual call setup.
//   * A dispatch publishes one Job; workers claim chunk indices from the
//     job's shared atomic counter (fetch_add) instead of popping tasks
//     from a mutex-guarded queue. The pool mutex is touched once to
//     publish and once to retire a job — not once per chunk.
//   * The calling thread claims chunks too (caller-runs), so a dispatch
//     on an idle pool costs one cv broadcast, not a context switch.
//   * Nested parallel_for from inside a pool task runs inline; the outer
//     loop already saturates the workers, and inlining cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gpucnn {

/// Non-owning reference to a callable with signature
/// void(std::size_t chunk_begin, std::size_t chunk_end). Valid only for
/// the duration of the parallel_for call that receives it — which always
/// joins before returning, so stack-allocated lambdas are safe.
///
/// Only lvalue callables can bind: constructing from a temporary is
/// deleted, so a ChunkFnRef stored past the originating full-expression
/// cannot silently point at a dead functor. The parallel_for entry
/// points accept temporaries by first binding them to a named (lvalue)
/// parameter that lives for the whole dispatch.
class ChunkFnRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, ChunkFnRef>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design,
  // call sites pass lambdas directly.
  ChunkFnRef(F& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, std::size_t lo, std::size_t hi) {
          (*static_cast<F*>(obj))(lo, hi);
        }) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, ChunkFnRef>>>
  ChunkFnRef(const F&& f) = delete;  ///< no rvalue temporaries

  void operator()(std::size_t lo, std::size_t hi) const {
    call_(obj_, lo, hi);
  }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t, std::size_t);
};

/// Fixed-size worker pool executing [begin, end) index ranges.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs body(chunk_begin, chunk_end) over disjoint chunks covering
  /// [begin, end); chunks are claimed dynamically by workers and the
  /// calling thread. Blocks until all chunks finish. Exceptions thrown
  /// by `body` are rethrown on the calling thread (first one wins).
  void parallel_for_chunks(std::size_t begin, std::size_t end,
                           ChunkFnRef body);

  /// Same, accepting any callable — including a temporary lambda at
  /// the call site, which binds to the named parameter (an lvalue that
  /// outlives the joining dispatch) before a ChunkFnRef is formed.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, ChunkFnRef>>>
  void parallel_for_chunks(std::size_t begin, std::size_t end, F&& body) {
    parallel_for_chunks(begin, end, ChunkFnRef(body));
  }

  /// Runs body(i) for every i in [begin, end). Same execution contract
  /// as parallel_for_chunks; accepts any callable, no std::function.
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, F&& body) {
    auto chunk = [&body](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    };
    parallel_for_chunks(begin, end, ChunkFnRef(chunk));
  }

 private:
  struct Job;

  void worker_loop();
  /// Claims and runs chunks of `job` until the claim counter is
  /// exhausted; records the first exception in the job.
  void work_on(Job& job, bool caller);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;  ///< workers: a job was published
  std::condition_variable job_done_;    ///< caller: chunks done / detached
  Job* current_job_ = nullptr;          ///< guarded by mutex_
  bool stop_ = false;
};

/// Process-wide pool shared by all kernels.
ThreadPool& global_pool();

namespace detail {
/// Out-of-line guts of the free parallel_for (serial fallback + metrics
/// live here so the template below stays tiny).
void parallel_for_impl(std::size_t begin, std::size_t end, ChunkFnRef body,
                       std::size_t serial_threshold);
}  // namespace detail

/// Convenience: chunked parallel loop on the global pool. Falls back to
/// a serial loop for tiny ranges where dispatch overhead would dominate.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& body,
                  std::size_t serial_threshold = 2) {
  auto chunk = [&body](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  };
  detail::parallel_for_impl(begin, end, ChunkFnRef(chunk),
                            serial_threshold);
}

/// Chunk-granular variant on the global pool.
void parallel_for_chunks(std::size_t begin, std::size_t end, ChunkFnRef body);

/// Workers a dispatch from this thread would spread over: the global
/// pool's size, or 1 inside a pool task (a nested dispatch runs inline)
/// and on a one-worker pool. Kernels read it to pick a partition that
/// gives every worker a share.
[[nodiscard]] std::size_t parallel_width();

/// Same, accepting any callable (see the ThreadPool member overload).
template <typename F,
          typename = std::enable_if_t<
              !std::is_same_v<std::remove_cvref_t<F>, ChunkFnRef>>>
void parallel_for_chunks(std::size_t begin, std::size_t end, F&& body) {
  parallel_for_chunks(begin, end, ChunkFnRef(body));
}

}  // namespace gpucnn
