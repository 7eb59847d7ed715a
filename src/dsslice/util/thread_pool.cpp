#include "dsslice/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <utility>

#include "dsslice/util/check.hpp"

namespace dsslice {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                      kMaxThreads);
  }
  if (threads > kMaxThreads) {
    throw ConfigError("ThreadPool: " + std::to_string(threads) +
                      " threads requested, at most " +
                      std::to_string(kMaxThreads) + " allowed");
  }
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // The destructor does not run for a constructor that throws: stop and
    // join the workers already started here, or they would wait on
    // cv_task_ forever while workers_ joins them.
    stop();
    workers_.clear();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  stop();
  // jthread joins on destruction.
}

void ThreadPool::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
}

void ThreadPool::submit(std::function<void()> task) {
  DSSLICE_REQUIRE(task != nullptr, "null task submitted to ThreadPool");
  {
    std::lock_guard lock(mutex_);
    DSSLICE_CHECK(!stopping_, "submit after shutdown");
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (pending_error_) {
    std::exception_ptr error = std::exchange(pending_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (error && !pending_error_) {
        pending_error_ = std::move(error);
      }
    }
    cv_idle_.notify_all();
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  // One item or one worker: run inline on the caller. Determinism is
  // unaffected and the dispatch overhead would dominate.
  if (count <= 1 || pool.size() == 1) {
    for (std::size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  // The lanes read this frame until they finish. A lane's last touch of it
  // is the unlock after counting itself done, and the caller only returns
  // once it holds the same mutex and sees every lane counted, so no lane
  // can still be reading the frame when it goes out of scope.
  const std::size_t lanes = std::min(pool.size(), count);
  std::size_t done_lanes = 0;  // guarded by done_mutex
  std::mutex done_mutex;
  std::condition_variable done_cv;

  for (std::size_t lane = 0; lane < lanes; ++lane) {
    pool.submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count || failed.load(std::memory_order_relaxed)) {
          break;
        }
        try {
          body(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!failed.exchange(true)) {
            first_error = std::current_exception();
          }
        }
      }
      const std::lock_guard lock(done_mutex);
      if (++done_lanes == lanes) {
        done_cv.notify_all();
      }
    });
  }

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return done_lanes == lanes; });
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace dsslice
