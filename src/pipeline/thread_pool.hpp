// Fixed-size thread-pool executor shared by the whole compile/simulate
// pipeline. Compile and simulate steps are submitted as separate tasks;
// a task may submit further tasks from inside its body (that is how
// dependency ordering is expressed: a source's task runs its first
// compile group and only then enqueues the source's other groups, and a
// compile task enqueues the simulate tasks that need its artifact once
// it holds one), and wait() blocks the submitter until the whole
// transitive set has drained. The queue is FIFO: a nested submission
// runs after every task queued before it, so the source tasks, queued
// first, start ahead of the groups they fan out. A pool of size 1
// spawns no threads at all and runs tasks inline in submit(), so
// `--jobs 1` is a plain serial loop with zero synchronisation overhead
// and trivially deterministic scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cepic::pipeline {

class ThreadPool {
public:
  /// `threads` is clamped to at least 1; pass hardware_jobs() for "all
  /// cores".
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned concurrency() const { return threads_; }

  /// Enqueue a task. Tasks must not throw — wrap fallible work and
  /// capture errors in the result slot instead. Safe to call from
  /// inside a running task (nested submission keeps wait() blocked
  /// until the new task finishes too).
  void submit(std::function<void()> task);

  /// Block until every submitted task — including tasks submitted by
  /// other tasks — has finished. The pool is reusable: more tasks may
  /// be submitted afterwards.
  void wait();

  /// std::thread::hardware_concurrency(), never less than 1.
  static unsigned hardware_jobs();

private:
  void worker();

  unsigned threads_ = 1;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t in_flight_ = 0;  ///< queued + currently executing
  bool stop_ = false;
};

}  // namespace cepic::pipeline
