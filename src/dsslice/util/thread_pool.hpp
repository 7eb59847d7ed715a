// A small fixed-size thread pool used to run simulation batches in parallel.
//
// The evaluation framework partitions 1024-graph batches across worker
// threads; per-graph results are deterministic (each graph carries its own
// seed), so parallel and serial runs produce identical statistics.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dsslice {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (with a floor of one worker).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; it runs on some worker at an unspecified time. If the
  /// task throws, the exception is captured (first one wins) and rethrown
  /// from the next wait_idle() — it never terminates the worker.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed. The pool stays usable.
  /// Rethrows the first exception thrown by a task submitted since the last
  /// wait_idle(), after the queue has fully drained (no deadlock: remaining
  /// tasks still run, their exceptions are discarded).
  void wait_idle();

 private:
  void worker_loop();

  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr pending_error_;
  // Declared last so it is destroyed first: the jthreads join while the
  // members above, which a worker may still touch after its last task
  // (it notifies cv_idle_), are alive.
  std::vector<std::jthread> workers_;
};

/// Runs body(i) for i in [0, count) across the pool, blocking until done.
/// Work is distributed by an atomic index so uneven item costs balance.
/// Exceptions thrown by `body` propagate to the caller (first one wins).
/// Delegates to the chunked overload below with a grain of one.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Chunked variant: covers [0, count) with half-open ranges of up to `grain`
/// consecutive indices and runs body(begin, end) for each, distributed
/// dynamically across the pool (an atomic chunk counter balances uneven
/// costs). Larger grains amortize the per-task dispatch and allow the body
/// to reuse scratch state across the indices of a chunk; grain 1 degenerates
/// to the per-index overload. Exceptions propagate (first one wins; a chunk
/// that throws is not resumed, but other chunks already running complete).
void parallel_for(ThreadPool& pool, std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Convenience overload using a process-wide shared pool.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Lazily-constructed process-wide pool sized to hardware concurrency.
ThreadPool& global_pool();

}  // namespace dsslice
