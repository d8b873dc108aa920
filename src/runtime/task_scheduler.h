// Persistent worker-pool execution substrate (the runtime analog of the
// paper's predeployed jobs, §5.1: pay setup once, reuse across invocations).
//
//   * TaskScheduler — a named, demand-grown pool of persistent worker
//     threads. Submitting a task never spawns a thread when an idle worker
//     exists, so the steady state of a repeatedly-invoked job (the computing
//     job's per-batch tasks) runs entirely on recycled threads. The pool
//     grows exactly when every worker is busy or blocked, which also makes
//     interdependent blocking tasks (intake loops, computing tasks and
//     storage drains wired by bounded partition holders) deadlock-free. Each
//     cluster::NodeController owns one pool; the Cluster Controller owns one
//     for coordination work (feed drivers, invocation coordinators).
//
//   * TaskGroup — a join scope over tasks launched on one or more
//     schedulers: Wait() blocks until every task finished and returns the
//     first error (common::FirstError semantics).
//
//   * Turnstile — a ticket line used by pipelined computing invocations
//     (AFM Model-3-style overlap): Wait(t) blocks until tickets 0..t-1 have
//     advanced past, keeping per-node pull and ship hand-offs in order while
//     the compute between them overlaps.
//
// Metrics (per pool, under idea.sched.<name>.*): tasks_run / tasks_failed
// counters, queue_depth and workers gauges (with high watermarks), and
// queue_wait_us / task_run_us histograms.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/first_error.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace idea::runtime {

class TaskScheduler {
 public:
  explicit TaskScheduler(std::string name, obs::MetricsRegistry* registry = nullptr);
  ~TaskScheduler();
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueues a task. Spawns a new persistent worker only when no idle
  /// worker can take it. Fails after Stop().
  Status Submit(std::function<void()> fn);

  /// Drains queued tasks, then joins every worker. Idempotent; called by the
  /// destructor. New submissions are rejected once stopping.
  void Stop();

  const std::string& name() const { return name_; }
  size_t worker_count() const;

  /// Bumps the pool's failed-task counter (called by TaskGroup when a task
  /// returns a non-OK status).
  void NoteTaskFailed() { tasks_failed_->Increment(); }

 private:
  struct QueuedTask {
    std::function<void()> fn;
    double enqueue_us = 0;
  };

  void WorkerLoop();

  const std::string name_;

  // Registry series (cached pointers).
  obs::Counter* tasks_run_ = nullptr;
  obs::Counter* tasks_failed_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* workers_gauge_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
  obs::Histogram* task_run_us_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  std::vector<std::thread> workers_;
  size_t idle_ = 0;
  bool stopping_ = false;
};

/// Join scope + first-error propagation over tasks launched on schedulers.
class TaskGroup {
 public:
  TaskGroup();
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `fn` to `scheduler` as part of this group. Returns an error
  /// (and runs nothing) if the scheduler is stopping.
  Status Launch(TaskScheduler* scheduler, std::function<Status()> fn);

  /// Blocks until every launched task finished; returns the first error
  /// reported by any task.
  Status Wait();

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    size_t pending = 0;
    common::FirstError error;
  };
  std::shared_ptr<State> state_;
};

/// Monotonic ticket line: ticket t may pass once tickets 0..t-1 advanced.
class Turnstile {
 public:
  /// Blocks until the line reaches `ticket`.
  void Wait(uint64_t ticket);
  /// Advances the line past `ticket` (no-op if already past).
  void AdvancePast(uint64_t ticket);
  uint64_t current() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ = 0;
};

/// RAII turn in a Turnstile. The destructor guarantees the line advances
/// past `ticket` on every exit path (waiting for its turn first if needed),
/// so an error return can never wedge later tickets. A null line makes every
/// operation a no-op (unpipelined execution).
class TurnstileTurn {
 public:
  TurnstileTurn(Turnstile* line, uint64_t ticket) : line_(line), ticket_(ticket) {}
  ~TurnstileTurn() { Release(); }
  TurnstileTurn(const TurnstileTurn&) = delete;
  TurnstileTurn& operator=(const TurnstileTurn&) = delete;

  /// Blocks until this ticket's turn.
  void Acquire() {
    if (line_ != nullptr) line_->Wait(ticket_);
  }
  /// Takes the turn (if not yet taken) and passes it on.
  void Release() {
    if (line_ == nullptr) return;
    line_->Wait(ticket_);
    line_->AdvancePast(ticket_);
    line_ = nullptr;
  }

 private:
  Turnstile* line_;
  uint64_t ticket_;
};

}  // namespace idea::runtime
