// RequestQueue — the bounded MPMC job queue between the transport and the
// worker threads.
//
// Connection threads submit() WorkloadSpecs (rejected with id 0 when the
// bound is hit — explicit backpressure instead of unbounded growth under a
// traffic spike); workers claim() jobs in FIFO order, run them, and
// finish() publishes the result; any thread can poll snapshot(), block in
// waitTerminal(), or cancel(). Cancellation is immediate for queued jobs
// and cooperative for running ones: the worker observes the job's cancel
// flag at its per-pattern cancellation points and abandons the run.
//
// Lifecycle bookkeeping (queuedSeconds, latencySeconds) is stamped here so
// every published JobResult carries the service-level timing the stats verb
// aggregates. The daemon's job table is its result store: it keeps the
// newest kMaxTerminalJobs terminal jobs for result retrieval and evicts the
// oldest-finished beyond that, so a long-running daemon's memory stays
// bounded (an inline spec carries its whole netlist and sequence text).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "serve/protocol.hpp"

namespace fmossim::serve {

/// One tracked job. Workers hold the shared_ptr while executing; all fields
/// except the atomic cancel flag are guarded by the queue's mutex.
struct Job {
  std::uint64_t id = 0;
  WorkloadSpec spec;
  JobStatus status = JobStatus::Queued;
  JobResult result;
  std::chrono::steady_clock::time_point submitTime;
  std::chrono::steady_clock::time_point startTime;
  /// Set by cancel() while the job runs; the worker polls it at pattern
  /// boundaries (its cancellation points) and abandons the run.
  std::atomic<bool> cancelRequested{false};
};

/// Mutex-free snapshot of a job's externally visible state.
struct JobView {
  std::uint64_t id = 0;
  JobStatus status = JobStatus::Queued;
  JobResult result;  ///< meaningful once status is terminal
};

/// The queue; see the file comment.
class RequestQueue {
 public:
  /// Terminal jobs kept for status/result retrieval. Older ones are evicted
  /// in the order they finished and then answer like unknown ids; a waiter
  /// already blocked in waitTerminal() still gets its job's result.
  static constexpr std::size_t kMaxTerminalJobs = 4096;

  /// `bound` caps the number of queued (not yet claimed) jobs.
  explicit RequestQueue(std::size_t bound = 64);

  /// Enqueues a job and returns its id, or 0 when the queue is full or
  /// stopped (backpressure; the transport surfaces it as an error response).
  std::uint64_t submit(WorkloadSpec spec);

  /// Blocks until a job is claimable (marking it Running) or the queue is
  /// stopped; nullptr means stop — the worker should exit.
  std::shared_ptr<Job> claim();

  /// Publishes a claimed job's outcome (Done, Failed or Cancelled) and
  /// stamps queuedSeconds/latencySeconds into the result.
  void finish(const std::shared_ptr<Job>& job, JobStatus status,
              JobResult result);

  /// Cancels a job: queued jobs become Cancelled immediately, running jobs
  /// get their cancel flag raised (cancelled at the next cancellation
  /// point). Returns false for unknown ids; terminal jobs are left alone.
  bool cancel(std::uint64_t id);

  /// Snapshot of a job's status and (terminal) result; nullopt for unknown
  /// ids.
  std::optional<JobView> snapshot(std::uint64_t id) const;

  /// Blocks until the job reaches a terminal status (or the queue stops,
  /// which cancels queued jobs first); nullopt for unknown ids.
  std::optional<JobView> waitTerminal(std::uint64_t id) const;

  std::size_t depth() const;         ///< queued jobs
  std::size_t runningCount() const;  ///< claimed, not yet finished
  std::size_t bound() const { return bound_; }

  /// Stops the queue: pending jobs become Cancelled, claim() returns
  /// nullptr, submit() rejects, waiters wake. Idempotent.
  void stop();
  bool stopped() const;

 private:
  JobView viewOf(const Job& job) const;  ///< caller holds mu_
  /// Records that `id` just became terminal and evicts the oldest terminal
  /// jobs past kMaxTerminalJobs; caller holds mu_.
  void retire(std::uint64_t id);

  const std::size_t bound_;
  mutable std::mutex mu_;
  mutable std::condition_variable workCv_;   ///< workers wait here
  mutable std::condition_variable doneCv_;   ///< result waiters wait here
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> pending_;
  std::deque<std::uint64_t> terminal_;  ///< terminal job ids, oldest first
  std::uint64_t nextId_ = 1;
  std::size_t running_ = 0;
  bool stopped_ = false;
};

}  // namespace fmossim::serve
