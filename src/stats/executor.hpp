// Fixed-size thread pool for embarrassingly parallel simulation work
// (replication batches). Mobius distributes replications
// across worker processes; we do the same across threads.
//
// Determinism contract: run_indexed assigns work by index, tasks write
// only index-owned state, and when several tasks fail the exception for
// the LOWEST index is rethrown — so outcomes never depend on thread
// scheduling. With jobs == 1 (or count <= 1) tasks run inline on the
// calling thread and no worker threads are ever created.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vcpusim::stats {

class ParallelExecutor {
 public:
  /// A pool of `jobs` workers; 0 selects std::thread::hardware_concurrency
  /// (at least 1). The calling thread participates in run_indexed, so
  /// `jobs` is the total parallelism and jobs - 1 threads are spawned.
  explicit ParallelExecutor(std::size_t jobs = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  std::size_t jobs() const noexcept { return jobs_; }

  /// Resolve a jobs request the way the constructor does (0 => hardware
  /// concurrency, minimum 1) without building a pool.
  static std::size_t resolve_jobs(std::size_t jobs) noexcept;

  /// Invoke task(i) for every i in [0, count), distributed over the pool,
  /// and block until all complete. The task must be safe to call
  /// concurrently from multiple threads for distinct indices. If any
  /// invocations throw, the exception of the lowest index is rethrown
  /// after the whole batch has drained. Reentrant calls from inside a
  /// task are not supported.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task);

 private:
  struct Batch;

  void worker_loop();
  static void claim_and_run(Batch& batch);

  std::size_t jobs_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Batch* current_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace vcpusim::stats
