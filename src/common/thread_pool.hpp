// A small fixed-size thread pool with a parallel_for helper.
//
// Random-forest training, the per-counter model fits, the per-SM
// simulation of a kernel launch and the serve batch fan-out are
// embarrassingly parallel; parallel_for chunks an index range over the
// pool. On a single-core host the pool degenerates to serial execution
// with no threading overhead (size 1 runs inline), so results and
// performance remain sensible everywhere.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bf {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.empty() ? 1 : workers_.size(); }

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed.
  void wait_idle();

  /// Run fn(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the pool. fn must be thread-safe across distinct indices.
  ///
  /// Blocks until this call's chunks are done, not until the pool is
  /// idle: the calling thread claims chunks too, so concurrent callers do
  /// not wait on each other and a call from inside a pool task cannot
  /// deadlock. If fn throws, every chunk still finishes and the exception
  /// of the lowest throwing index is rethrown here, exactly as a serial
  /// loop would report it.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (lazily created, sized to the machine).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace bf
