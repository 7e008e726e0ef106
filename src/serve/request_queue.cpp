#include "serve/request_queue.hpp"

#include <algorithm>

namespace fmossim::serve {

namespace {

double secondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool isTerminal(JobStatus s) {
  return s == JobStatus::Done || s == JobStatus::Failed ||
         s == JobStatus::Cancelled;
}

}  // namespace

RequestQueue::RequestQueue(std::size_t bound) : bound_(std::max<std::size_t>(1, bound)) {}

std::uint64_t RequestQueue::submit(WorkloadSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_ || pending_.size() >= bound_) return 0;
  auto job = std::make_shared<Job>();
  job->id = nextId_++;
  job->spec = std::move(spec);
  job->submitTime = std::chrono::steady_clock::now();
  jobs_.emplace(job->id, job);
  pending_.push_back(job->id);
  workCv_.notify_one();
  return job->id;
}

std::shared_ptr<Job> RequestQueue::claim() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopped_) return nullptr;
    // Skip over jobs cancelled while queued (they are already terminal).
    while (!pending_.empty()) {
      const std::uint64_t id = pending_.front();
      pending_.pop_front();
      const auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second->status != JobStatus::Queued) {
        continue;
      }
      Job& job = *it->second;
      job.status = JobStatus::Running;
      job.startTime = std::chrono::steady_clock::now();
      ++running_;
      return it->second;
    }
    workCv_.wait(lock);
  }
}

void RequestQueue::finish(const std::shared_ptr<Job>& job, JobStatus status,
                          JobResult result) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  result.queuedSeconds = secondsBetween(job->submitTime, job->startTime);
  result.latencySeconds = secondsBetween(job->submitTime, now);
  job->result = std::move(result);
  job->status = isTerminal(status) ? status : JobStatus::Failed;
  if (running_ > 0) --running_;
  retire(job->id);
  doneCv_.notify_all();
}

void RequestQueue::retire(std::uint64_t id) {
  terminal_.push_back(id);
  while (terminal_.size() > kMaxTerminalJobs) {
    jobs_.erase(terminal_.front());
    terminal_.pop_front();
  }
}

bool RequestQueue::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  switch (job.status) {
    case JobStatus::Queued:
      job.status = JobStatus::Cancelled;
      retire(id);
      doneCv_.notify_all();
      return true;
    case JobStatus::Running:
      job.cancelRequested.store(true, std::memory_order_relaxed);
      return true;
    default:
      return true;  // already terminal; cancel is a no-op
  }
}

JobView RequestQueue::viewOf(const Job& job) const {
  JobView v;
  v.id = job.id;
  v.status = job.status;
  v.result = job.result;
  return v;
}

std::optional<JobView> RequestQueue::snapshot(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return viewOf(*it->second);
}

std::optional<JobView> RequestQueue::waitTerminal(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const std::shared_ptr<Job> job = it->second;
  doneCv_.wait(lock, [&] { return stopped_ || isTerminal(job->status); });
  return viewOf(*job);
}

std::size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  // pending_ may hold ids cancelled while queued; count live ones only.
  std::size_t n = 0;
  for (const std::uint64_t id : pending_) {
    const auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second->status == JobStatus::Queued) ++n;
  }
  return n;
}

std::size_t RequestQueue::runningCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void RequestQueue::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return;
  stopped_ = true;
  for (const std::uint64_t id : pending_) {
    const auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second->status == JobStatus::Queued) {
      it->second->status = JobStatus::Cancelled;
      retire(id);
    }
  }
  pending_.clear();
  workCv_.notify_all();
  doneCv_.notify_all();
}

bool RequestQueue::stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopped_;
}

}  // namespace fmossim::serve
