#include "runtime/task_scheduler.h"

#include <utility>

namespace idea::runtime {

TaskScheduler::TaskScheduler(std::string name, obs::MetricsRegistry* registry)
    : name_(std::move(name)) {
  if (registry == nullptr) registry = &obs::MetricsRegistry::Default();
  obs::Scope scope(registry, "idea.sched." + name_);
  tasks_run_ = scope.Counter("tasks_run");
  tasks_failed_ = scope.Counter("tasks_failed");
  queue_depth_ = scope.Gauge("queue_depth");
  workers_gauge_ = scope.Gauge("workers");
  queue_wait_us_ = scope.Histogram("queue_wait_us");
  task_run_us_ = scope.Histogram("task_run_us");
}

TaskScheduler::~TaskScheduler() { Stop(); }

Status TaskScheduler::Submit(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    return Status::Aborted("scheduler '" + name_ + "' is stopped");
  }
  queue_.push_back(QueuedTask{std::move(fn), obs::NowMicros()});
  queue_depth_->Add(1);
  // Growth invariant: every queued task has a distinct worker that is idle
  // (parked or about to re-check the queue) or being spawned for it. Idle
  // workers may be claimed by earlier submissions that they have not woken
  // up for yet, so compare against the queue depth, not just idle_ == 0.
  if (idle_ < queue_.size()) {
    workers_.emplace_back(&TaskScheduler::WorkerLoop, this);
    workers_gauge_->Set(static_cast<int64_t>(workers_.size()));
  }
  cv_.notify_one();
  return Status::OK();
}

void TaskScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    while (queue_.empty() && !stopping_) {
      ++idle_;
      cv_.wait(lock);
      --idle_;
    }
    if (queue_.empty()) return;  // stopping_ and drained
    QueuedTask task = std::move(queue_.front());
    queue_.pop_front();
    queue_depth_->Add(-1);
    lock.unlock();
    queue_wait_us_->Record(obs::NowMicros() - task.enqueue_us);
    // Counted at start: anything observing a task's completion (a TaskGroup
    // wait released from inside fn) then sees it in tasks_run.
    tasks_run_->Increment();
    double t0 = obs::NowMicros();
    task.fn();
    task_run_us_->Record(obs::NowMicros() - t0);
    lock.lock();
  }
}

void TaskScheduler::Stop() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);  // no spawns after stopping_; safe to detach list
    cv_.notify_all();
  }
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
}

size_t TaskScheduler::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

TaskGroup::TaskGroup() : state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() { (void)Wait(); }

Status TaskGroup::Launch(TaskScheduler* scheduler, std::function<Status()> fn) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->pending;
  }
  std::shared_ptr<State> state = state_;
  Status submitted =
      scheduler->Submit([state, scheduler, fn = std::move(fn)]() mutable {
        Status st = fn();
        if (!st.ok()) {
          scheduler->NoteTaskFailed();
          state->error.Set(st);
        }
        std::lock_guard<std::mutex> lock(state->mu);
        if (--state->pending == 0) state->cv.notify_all();
      });
  if (!submitted.ok()) {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (--state_->pending == 0) state_->cv.notify_all();
  }
  return submitted;
}

Status TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->pending == 0; });
  lock.unlock();
  return state_->error.Get();
}

// ---------------------------------------------------------------------------
// Turnstile
// ---------------------------------------------------------------------------

void Turnstile::Wait(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return next_ >= ticket; });
}

void Turnstile::AdvancePast(uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_ <= ticket) {
    next_ = ticket + 1;
    cv_.notify_all();
  }
}

uint64_t Turnstile::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

}  // namespace idea::runtime
