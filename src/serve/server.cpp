#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "perf/bench_runner.hpp"
#include "seu/seu_campaign.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace fmossim::serve {

namespace {

/// Thrown from the per-pattern cancellation point to unwind a cancelled run.
struct CancelledRun {};

}  // namespace

void LatencyHistogram::record(double seconds) {
  std::size_t i = 0;
  if (seconds >= kFloorSeconds) {
    const double k = std::floor(std::log2(seconds / kFloorSeconds) * kPerOctave);
    i = 1 + static_cast<std::size_t>(
                std::min(k, static_cast<double>(buckets_.size() - 2)));
  }
  ++buckets_[i];
  ++count_;
}

double LatencyHistogram::percentileMs(double p) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped / 100.0 * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) break;
  }
  if (i == 0) return kFloorSeconds * 1000.0 / 2.0;
  // Bucket i >= 1 spans [floor * 2^((i-1)/16), floor * 2^(i/16)); the
  // overflow bucket reports its lower bound.
  const double lower =
      kFloorSeconds * std::exp2(static_cast<double>(i - 1) / kPerOctave);
  const double mid = i == buckets_.size() - 1
                         ? lower
                         : lower * std::exp2(0.5 / kPerOctave);
  return mid * 1000.0;
}

JsonValue ServerStats::toJson() const {
  JsonValue o = JsonValue::makeObject();
  o.set("uptimeSeconds", JsonValue::makeNumber(uptimeSeconds));
  o.set("submitted", JsonValue::makeU64(submitted));
  o.set("rejected", JsonValue::makeU64(rejected));
  o.set("completed", JsonValue::makeU64(completed));
  o.set("failed", JsonValue::makeU64(failed));
  o.set("cancelled", JsonValue::makeU64(cancelled));
  o.set("requestsPerSec", JsonValue::makeNumber(requestsPerSec));
  o.set("p50Ms", JsonValue::makeNumber(p50Ms));
  o.set("p95Ms", JsonValue::makeNumber(p95Ms));
  o.set("p99Ms", JsonValue::makeNumber(p99Ms));
  o.set("latencySamples", JsonValue::makeU64(latencySamples));
  o.set("queueDepth", JsonValue::makeU64(queueDepth));
  o.set("running", JsonValue::makeU64(running));
  o.set("workers", JsonValue::makeU64(workers));
  JsonValue p = JsonValue::makeObject();
  p.set("engines", JsonValue::makeU64(pool.engines));
  p.set("acquires", JsonValue::makeU64(pool.acquires));
  p.set("reuses", JsonValue::makeU64(pool.reuses));
  p.set("rebinds", JsonValue::makeU64(pool.rebinds));
  p.set("builds", JsonValue::makeU64(pool.builds));
  o.set("pool", std::move(p));
  JsonValue s = JsonValue::makeObject();
  s.set("hits", JsonValue::makeU64(storeHits));
  s.set("recordings", JsonValue::makeU64(storeRecordings));
  s.set("entries", JsonValue::makeU64(storeEntries));
  s.set("residentBytes", JsonValue::makeU64(storeResidentBytes));
  s.set("budgetBytes", JsonValue::makeU64(storeBudgetBytes));
  o.set("store", std::move(s));
  return o;
}

Server::Server(ServerOptions options)
    : options_(options),
      store_(std::make_shared<CheckpointStore>(CheckpointStore::Options{
          options.checkpointBudgetBytes,
          std::max<std::size_t>(1, options.storeEntries),
          {}})),
      pool_(EnginePoolOptions{std::max(1u, options.poolEngines), store_}),
      queue_(options.queueBound),
      startTime_(std::chrono::steady_clock::now()) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  started_ = true;
  startTime_ = std::chrono::steady_clock::now();
  // More workers than engine slots would just park in pool_.acquire().
  const unsigned n =
      std::min(std::max(1u, options_.workers), std::max(1u, options_.poolEngines));
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

void Server::stop() {
  queue_.stop();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void Server::workerLoop() {
  for (;;) {
    std::shared_ptr<Job> job = queue_.claim();
    if (job == nullptr) return;
    execute(job);
  }
}

void Server::execute(const std::shared_ptr<Job>& job) {
  JobResult result;
  JobStatus outcome = JobStatus::Done;
  EnginePool::Lease lease;
  try {
    BuiltWorkload w = buildWorkload(job->spec);
    if (!w.seuCampaign.empty()) {
      // SEU grading jobs bypass the engine pool: the campaign runner builds
      // its own per-group tail engines and only needs the daemon's shared
      // store (the good-machine recording is cached across campaigns against
      // the same circuit + sequence). The between-groups hook is the
      // cancellation point.
      seu::CampaignOptions opts;
      opts.jobs = job->spec.jobs;
      opts.policy = job->spec.policy;
      opts.store = store_;
      opts.checkPoint = [&job] {
        if (job->cancelRequested.load(std::memory_order_relaxed)) {
          throw CancelledRun{};
        }
      };
      Timer timer;
      const seu::CampaignResult res =
          seu::runSeuCampaign(w.net, w.seq, w.seuCampaign, opts);
      result.wallSeconds = timer.seconds();
      result.backend = "seu-replay";
      result.checksum = res.checksum();
      result.numFaults = static_cast<std::uint32_t>(res.injections.size());
      result.numDetected = res.numDetected;
      result.nodeEvals = res.totalNodeEvals;
      result.cpuSeconds = res.totalSeconds;
      recordLatency(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - job->submitTime)
                        .count(),
                    outcome);
      queue_.finish(job, outcome, std::move(result));
      return;
    }
    lease = pool_.acquire(w.net, w.faults, specEngineOptions(job->spec));
    result.engineReused = lease.reused;
    result.backend = lease.engine->backendName();
    Timer timer;
    // The engine's per-pattern callback is the cancellation point. For the
    // sharded backend it fires after the merge (per merged pattern), which
    // is still bounded; a cancel observed mid-run abandons the job.
    const auto cancelPoint = [&job](const PatternStat&) {
      if (job->cancelRequested.load(std::memory_order_relaxed)) {
        throw CancelledRun{};
      }
    };
    FaultSimResult res;
    if (w.streamConfig.has_value()) {
      // Streamed spec: pull patterns from the generator source; the result
      // is rowless and resultChecksum folds its derived rows, so the
      // reported checksum equals a materialized run's.
      GeneratedPatternSource source(*w.streamConfig);
      res = lease.engine->runStream(source, nullptr, cancelPoint);
    } else {
      res = lease.engine->run(w.seq, cancelPoint);
    }
    result.wallSeconds = timer.seconds();
    result.checksum = perf::resultChecksum(res);
    result.numFaults = static_cast<std::uint32_t>(res.numFaults);
    result.numDetected = static_cast<std::uint32_t>(res.numDetected);
    result.nodeEvals = res.totalNodeEvals;
    result.cpuSeconds = res.totalCpuSeconds;
  } catch (const CancelledRun&) {
    outcome = JobStatus::Cancelled;
    if (lease.engine != nullptr) lease.engine->reset();  // abandoned session
  } catch (const Error& e) {
    outcome = JobStatus::Failed;
    result.error = e.what();
    if (lease.engine != nullptr) lease.engine->reset();
  } catch (const std::exception& e) {
    outcome = JobStatus::Failed;
    result.error = e.what();
    if (lease.engine != nullptr) lease.engine->reset();
  }
  pool_.release(lease);
  // Update the counters BEFORE finish() publishes the terminal status and
  // wakes result waiters: a client that sees "done" must also see it counted.
  recordLatency(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - job->submitTime)
                    .count(),
                outcome);
  queue_.finish(job, outcome, std::move(result));
}

void Server::recordLatency(double seconds, JobStatus status) {
  std::lock_guard<std::mutex> lock(statsMu_);
  switch (status) {
    case JobStatus::Done:
      ++completed_;
      latencies_.record(seconds);
      break;
    case JobStatus::Failed:
      ++failed_;
      break;
    case JobStatus::Cancelled:
      ++cancelled_;
      break;
    default:
      break;
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.uptimeSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - startTime_)
                        .count();
  LatencyHistogram latencies;
  {
    std::lock_guard<std::mutex> lock(statsMu_);
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    latencies = latencies_;
  }
  if (s.uptimeSeconds > 0.0) {
    s.requestsPerSec = static_cast<double>(s.completed) / s.uptimeSeconds;
  }
  s.p50Ms = latencies.percentileMs(50.0);
  s.p95Ms = latencies.percentileMs(95.0);
  s.p99Ms = latencies.percentileMs(99.0);
  s.latencySamples = latencies.count();
  s.queueDepth = queue_.depth();
  s.running = queue_.runningCount();
  s.workers = std::min(std::max(1u, options_.workers),
                       std::max(1u, options_.poolEngines));
  s.pool = pool_.stats();
  s.storeHits = store_->hits();
  s.storeRecordings = store_->recordings();
  s.storeEntries = store_->entries();
  s.storeResidentBytes = store_->memoryBytes();
  s.storeBudgetBytes = options_.checkpointBudgetBytes;
  return s;
}

std::string Server::handleLine(const std::string& line) {
  try {
    return handle(JsonValue::parse(line)).dump();
  } catch (const std::exception& e) {
    JsonValue err = JsonValue::makeObject();
    err.set("ok", JsonValue::makeBool(false));
    err.set("error", JsonValue::makeString(e.what()));
    return err.dump();
  }
}

JsonValue Server::handle(const JsonValue& request) {
  if (!request.isObject()) throw Error("request must be a JSON object");
  const std::string verb = request.stringOr("verb", "");
  JsonValue resp = JsonValue::makeObject();

  if (verb == "submit") {
    const JsonValue* workload = request.find("workload");
    if (workload == nullptr) throw Error("submit: missing \"workload\"");
    WorkloadSpec spec = WorkloadSpec::fromJson(*workload);
    const std::uint64_t id = queue_.submit(std::move(spec));
    if (id == 0) {
      std::lock_guard<std::mutex> lock(statsMu_);
      ++rejected_;
      throw Error(queue_.stopped() ? "server is shutting down"
                                   : "queue full (backpressure), retry later");
    }
    {
      std::lock_guard<std::mutex> lock(statsMu_);
      ++submitted_;
    }
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("id", JsonValue::makeU64(id));
    resp.set("status", JsonValue::makeString("queued"));
    return resp;
  }

  if (verb == "status" || verb == "result" || verb == "cancel") {
    const std::uint64_t id = request.u64Or("id", 0);
    if (id == 0) throw Error(verb + ": missing \"id\"");
    if (verb == "cancel" && !queue_.cancel(id)) {
      throw Error("unknown job id");
    }
    const std::optional<JobView> view =
        verb == "result" ? queue_.waitTerminal(id) : queue_.snapshot(id);
    if (!view.has_value()) throw Error("unknown job id");
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("id", JsonValue::makeU64(view->id));
    resp.set("status", JsonValue::makeString(jobStatusName(view->status)));
    const bool terminal = view->status == JobStatus::Done ||
                          view->status == JobStatus::Failed ||
                          view->status == JobStatus::Cancelled;
    if (verb != "cancel" && terminal) {
      resp.set("result", view->result.toJson());
    }
    return resp;
  }

  if (verb == "stats") {
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("stats", stats().toJson());
    return resp;
  }

  if (verb == "shutdown") {
    shutdownRequested_.store(true, std::memory_order_release);
    queue_.stop();
    resp.set("ok", JsonValue::makeBool(true));
    resp.set("shutdown", JsonValue::makeBool(true));
    return resp;
  }

  throw Error(verb.empty() ? "missing \"verb\""
                           : "unknown verb '" + verb + "'");
}

}  // namespace fmossim::serve
