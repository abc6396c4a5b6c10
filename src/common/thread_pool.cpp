#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace bf {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // A single-thread pool runs tasks inline in submit(); no worker needed.
  if (threads == 1) return;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {

/// The shared state of one parallel_for call. The caller and its helper
/// tasks claim chunks from `next`; the caller waits on `done` alone. A
/// helper that starts after every chunk was claimed returns without
/// touching `fn`, so the state (kept alive by the helpers' shared_ptr)
/// may outlive the caller's frame but `fn` is never used after it.
struct ForCall {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk_size = 1;
  std::size_t chunks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};

  std::mutex mu;
  std::condition_variable all_done;
  std::size_t done = 0;
  std::size_t failed_at = 0;  // lowest throwing index, valid when error
  std::exception_ptr error;

  void drain() {
    for (std::size_t c = next.fetch_add(1); c < chunks;
         c = next.fetch_add(1)) {
      const std::size_t lo = begin + c * chunk_size;
      const std::size_t hi = std::min(end, lo + chunk_size);
      std::size_t i = lo;
      std::exception_ptr err;
      try {
        for (; i < hi; ++i) (*fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (err && (!error || i < failed_at)) {
        error = err;
        failed_at = i;
      }
      if (++done == chunks) all_done.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  auto call = std::make_shared<ForCall>();
  call->begin = begin;
  call->end = end;
  call->chunk_size = (n + workers_.size() * 4 - 1) / (workers_.size() * 4);
  call->chunks = (n + call->chunk_size - 1) / call->chunk_size;
  call->fn = &fn;
  const std::size_t helpers = std::min(call->chunks - 1, workers_.size());
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([call] { call->drain(); });
  }
  call->drain();
  std::unique_lock<std::mutex> lock(call->mu);
  call->all_done.wait(lock, [&call] { return call->done == call->chunks; });
  if (call->error) std::rethrow_exception(call->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace bf
