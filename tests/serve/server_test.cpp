// Daemon end-to-end: verb dispatch through handleLine(), the full
// socket transport round trip, queue backpressure, cancellation and
// shutdown semantics.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>

#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "perf/bench_runner.hpp"
#include "serve/loadgen.hpp"
#include "serve/request_queue.hpp"
#include "serve/transport.hpp"
#include "seu/seu_campaign.hpp"

namespace fmossim::serve {
namespace {

JsonValue submitRequest(std::uint64_t circuitSeed) {
  WorkloadSpec spec;
  spec.circuitSeed = circuitSeed;
  spec.numNodes = 14;
  spec.numInputs = 4;
  spec.numFaults = 16;
  spec.numPatterns = 8;
  JsonValue req = JsonValue::makeObject();
  req.set("verb", JsonValue::makeString("submit"));
  req.set("workload", spec.toJson());
  return req;
}

std::uint64_t directChecksum(std::uint64_t circuitSeed) {
  WorkloadSpec spec;
  spec.circuitSeed = circuitSeed;
  spec.numNodes = 14;
  spec.numInputs = 4;
  spec.numFaults = 16;
  spec.numPatterns = 8;
  const BuiltWorkload w = buildWorkload(spec);
  Engine engine(w.net, w.faults, specEngineOptions(spec));
  return perf::resultChecksum(engine.run(w.seq));
}

TEST(ServerTest, SubmitResultStatsRoundTrip) {
  Server server{ServerOptions{}};
  server.start();

  const JsonValue submitted =
      JsonValue::parse(server.handleLine(submitRequest(5).dump()));
  ASSERT_TRUE(submitted.boolOr("ok", false));
  const std::uint64_t id = submitted.u64Or("id", 0);
  ASSERT_GT(id, 0u);

  JsonValue resultReq = JsonValue::makeObject();
  resultReq.set("verb", JsonValue::makeString("result"));
  resultReq.set("id", JsonValue::makeU64(id));
  const JsonValue resolved =
      JsonValue::parse(server.handleLine(resultReq.dump()));
  ASSERT_TRUE(resolved.boolOr("ok", false));
  EXPECT_EQ(resolved.stringOr("status", ""), "done");
  const JobResult jr = JobResult::fromJson(resolved.get("result"));
  EXPECT_EQ(jr.checksum, directChecksum(5));  // bit-identity over the wire
  EXPECT_EQ(jr.backend, "sharded");
  EXPECT_GT(jr.latencySeconds, 0.0);

  JsonValue statsReq = JsonValue::makeObject();
  statsReq.set("verb", JsonValue::makeString("stats"));
  const JsonValue stats =
      JsonValue::parse(server.handleLine(statsReq.dump()));
  ASSERT_TRUE(stats.boolOr("ok", false));
  EXPECT_EQ(stats.get("stats").u64Or("completed", 0), 1u);
  EXPECT_GE(stats.get("stats").get("store").u64Or("recordings", 0), 1u);
  server.stop();
}

TEST(ServerTest, RepeatSubmissionsReuseEngineAndStore) {
  Server server{ServerOptions{}};
  server.start();
  std::uint64_t lastChecksum = 0;
  bool sawReuse = false;
  for (int i = 0; i < 3; ++i) {
    const JsonValue submitted =
        JsonValue::parse(server.handleLine(submitRequest(6).dump()));
    ASSERT_TRUE(submitted.boolOr("ok", false));
    JsonValue resultReq = JsonValue::makeObject();
    resultReq.set("verb", JsonValue::makeString("result"));
    resultReq.set("id", JsonValue::makeU64(submitted.u64Or("id", 0)));
    const JsonValue resolved =
        JsonValue::parse(server.handleLine(resultReq.dump()));
    ASSERT_EQ(resolved.stringOr("status", ""), "done");
    const JobResult jr = JobResult::fromJson(resolved.get("result"));
    if (i > 0) EXPECT_EQ(jr.checksum, lastChecksum);
    lastChecksum = jr.checksum;
    sawReuse = sawReuse || jr.engineReused;
  }
  EXPECT_TRUE(sawReuse);  // same workload, same options: a live engine serves
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GE(stats.pool.reuses, 1u);
  EXPECT_EQ(stats.storeRecordings, 1u);  // recorded once across all three
  server.stop();
}

WorkloadSpec seuSpec() {
  WorkloadSpec spec;
  spec.circuitSeed = 11;
  spec.numNodes = 18;
  spec.numPatterns = 24;
  spec.seuInjections = 12;
  spec.seuSeed = 99;
  spec.seuInstants = 3;
  spec.policy = DetectionPolicy::AnyDifference;
  return spec;
}

TEST(ServerTest, SeuJobGradesCampaignAgainstNaiveOracle) {
  Server server{ServerOptions{}};
  server.start();

  JsonValue req = JsonValue::makeObject();
  req.set("verb", JsonValue::makeString("submit"));
  req.set("workload", seuSpec().toJson());
  const JsonValue submitted = JsonValue::parse(server.handleLine(req.dump()));
  ASSERT_TRUE(submitted.boolOr("ok", false));

  JsonValue resultReq = JsonValue::makeObject();
  resultReq.set("verb", JsonValue::makeString("result"));
  resultReq.set("id", JsonValue::makeU64(submitted.u64Or("id", 0)));
  const JsonValue resolved =
      JsonValue::parse(server.handleLine(resultReq.dump()));
  ASSERT_EQ(resolved.stringOr("status", ""), "done");
  const JobResult jr = JobResult::fromJson(resolved.get("result"));
  EXPECT_EQ(jr.backend, "seu-replay");
  EXPECT_EQ(jr.numFaults, 12u);

  // Oracle: a naive from-scratch grading of the same campaign, no daemon,
  // no checkpoint store, must checksum bit-identically.
  const BuiltWorkload w = buildWorkload(seuSpec());
  seu::CampaignOptions naive;
  naive.policy = DetectionPolicy::AnyDifference;
  naive.naive = true;
  const seu::CampaignResult oracle =
      seu::runSeuCampaign(w.net, w.seq, w.seuCampaign, naive);
  EXPECT_EQ(jr.checksum, oracle.checksum());
  EXPECT_EQ(jr.numDetected, oracle.numDetected);

  // The campaign engaged the daemon's shared store.
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.storeRecordings, 1u);
  server.stop();
}

TEST(ServerTest, SeuJobsShareTheStoreRecording) {
  Server server{ServerOptions{}};
  server.start();
  std::uint64_t lastChecksum = 0;
  for (int i = 0; i < 3; ++i) {
    JsonValue req = JsonValue::makeObject();
    req.set("verb", JsonValue::makeString("submit"));
    req.set("workload", seuSpec().toJson());
    const JsonValue submitted =
        JsonValue::parse(server.handleLine(req.dump()));
    ASSERT_TRUE(submitted.boolOr("ok", false));
    JsonValue resultReq = JsonValue::makeObject();
    resultReq.set("verb", JsonValue::makeString("result"));
    resultReq.set("id", JsonValue::makeU64(submitted.u64Or("id", 0)));
    const JsonValue resolved =
        JsonValue::parse(server.handleLine(resultReq.dump()));
    ASSERT_EQ(resolved.stringOr("status", ""), "done");
    const JobResult jr = JobResult::fromJson(resolved.get("result"));
    if (i > 0) EXPECT_EQ(jr.checksum, lastChecksum);
    lastChecksum = jr.checksum;
  }
  // One good-machine recording serves all three campaigns.
  EXPECT_EQ(server.stats().storeRecordings, 1u);
  server.stop();
}

TEST(ServerTest, MalformedRequestsBecomeErrorResponses) {
  Server server{ServerOptions{}};
  server.start();
  for (const char* bad : {
           "this is not json",
           "{\"verb\": \"frobnicate\"}",
           "{}",
           "{\"verb\": \"status\", \"id\": 999}",
           "{\"verb\": \"submit\"}",
           "{\"verb\": \"submit\", \"workload\": {\"kind\": \"mystery\"}}",
       }) {
    const JsonValue resp = JsonValue::parse(server.handleLine(bad));
    EXPECT_FALSE(resp.boolOr("ok", true)) << bad;
    EXPECT_FALSE(resp.stringOr("error", "").empty()) << bad;
  }
  server.stop();
}

TEST(ServerTest, QueueBackpressureRejectsWhenFull) {
  // No workers claim jobs (workers start only with start()), so the queue
  // fills to its bound and the next submit is rejected.
  ServerOptions opts;
  opts.queueBound = 2;
  Server server(opts);
  EXPECT_TRUE(JsonValue::parse(server.handleLine(submitRequest(1).dump()))
                  .boolOr("ok", false));
  EXPECT_TRUE(JsonValue::parse(server.handleLine(submitRequest(2).dump()))
                  .boolOr("ok", false));
  const JsonValue rejected =
      JsonValue::parse(server.handleLine(submitRequest(3).dump()));
  EXPECT_FALSE(rejected.boolOr("ok", true));
  EXPECT_NE(rejected.stringOr("error", "").find("queue full"),
            std::string::npos);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queueDepth, 2u);
}

TEST(ServerTest, CancelQueuedJobIsImmediate) {
  Server server{ServerOptions{}};  // never started: jobs stay queued
  const JsonValue submitted =
      JsonValue::parse(server.handleLine(submitRequest(1).dump()));
  const std::uint64_t id = submitted.u64Or("id", 0);
  JsonValue cancelReq = JsonValue::makeObject();
  cancelReq.set("verb", JsonValue::makeString("cancel"));
  cancelReq.set("id", JsonValue::makeU64(id));
  const JsonValue cancelled =
      JsonValue::parse(server.handleLine(cancelReq.dump()));
  ASSERT_TRUE(cancelled.boolOr("ok", false));
  EXPECT_EQ(cancelled.stringOr("status", ""), "cancelled");
  // result on a cancelled job returns immediately with the terminal status.
  JsonValue resultReq = JsonValue::makeObject();
  resultReq.set("verb", JsonValue::makeString("result"));
  resultReq.set("id", JsonValue::makeU64(id));
  const JsonValue resolved =
      JsonValue::parse(server.handleLine(resultReq.dump()));
  EXPECT_EQ(resolved.stringOr("status", ""), "cancelled");
}

TEST(ServerTest, ShutdownVerbStopsAcceptingWork) {
  Server server{ServerOptions{}};
  server.start();
  JsonValue down = JsonValue::makeObject();
  down.set("verb", JsonValue::makeString("shutdown"));
  const JsonValue resp = JsonValue::parse(server.handleLine(down.dump()));
  EXPECT_TRUE(resp.boolOr("ok", false));
  EXPECT_TRUE(server.shutdownRequested());
  const JsonValue refused =
      JsonValue::parse(server.handleLine(submitRequest(1).dump()));
  EXPECT_FALSE(refused.boolOr("ok", true));
  server.stop();
}

TEST(LatencyHistogramTest, PercentilesTrackEverySample) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentileMs(50.0), 0.0);
  for (int i = 0; i < 5000; ++i) h.record(0.001);
  EXPECT_NEAR(h.percentileMs(50.0), 1.0, 0.03);
  EXPECT_NEAR(h.percentileMs(99.0), 1.0, 0.03);
  // Well past 4096 samples the report still follows new completions.
  for (int i = 0; i < 20000; ++i) h.record(0.1);
  EXPECT_EQ(h.count(), 25000u);
  EXPECT_NEAR(h.percentileMs(10.0), 1.0, 0.03);
  EXPECT_NEAR(h.percentileMs(50.0), 100.0, 3.0);
  EXPECT_NEAR(h.percentileMs(99.0), 100.0, 3.0);
  // Out-of-range samples land in the end buckets, not out of bounds.
  h.record(0.0);
  h.record(1e9);
  EXPECT_EQ(h.count(), 25002u);
  EXPECT_LE(h.percentileMs(0.0), 0.001);
  EXPECT_GT(h.percentileMs(100.0), 1e6);
}

JsonValue tinySubmitRequest() {
  WorkloadSpec spec;
  spec.circuitSeed = 3;
  spec.numNodes = 6;
  spec.numInputs = 2;
  spec.numFaults = 2;
  spec.numPatterns = 2;
  spec.jobs = 1;
  JsonValue req = JsonValue::makeObject();
  req.set("verb", JsonValue::makeString("submit"));
  req.set("workload", spec.toJson());
  return req;
}

/// Submits `burst` copies of `request` back to back, then waits for all of
/// them.
void runBurst(Server& server, int burst, const JsonValue& request) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < burst; ++i) {
    const JsonValue submitted =
        JsonValue::parse(server.handleLine(request.dump()));
    ASSERT_TRUE(submitted.boolOr("ok", false));
    ids.push_back(submitted.u64Or("id", 0));
  }
  for (const std::uint64_t id : ids) {
    JsonValue resultReq = JsonValue::makeObject();
    resultReq.set("verb", JsonValue::makeString("result"));
    resultReq.set("id", JsonValue::makeU64(id));
    ASSERT_EQ(JsonValue::parse(server.handleLine(resultReq.dump()))
                  .stringOr("status", ""),
              "done");
  }
}

TEST(ServerTest, LatencyStatsKeepMovingPastFourThousandCompletions) {
  Server server{ServerOptions{}};
  server.start();
  // One job at a time: each latency is one job's run time.
  for (int i = 0; i < 4200; ++i) runBurst(server, 1, tinySubmitRequest());
  const ServerStats before = server.stats();
  EXPECT_EQ(before.completed, 4200u);
  EXPECT_EQ(before.latencySamples, before.completed);
  // Bursts queue behind each other, so their later jobs wait many job
  // times; with >1% of all samples from bursts, p99 must rise. Burst jobs
  // are a larger workload than the lone tiny jobs, so that wait stays well
  // above the scheduling delays a loaded host adds to single tiny jobs.
  for (int b = 0; b < 12; ++b) runBurst(server, 48, submitRequest(1));
  const ServerStats after = server.stats();
  EXPECT_EQ(after.completed, 4200u + 12u * 48u);
  EXPECT_EQ(after.latencySamples, after.completed);
  EXPECT_GT(after.p99Ms, before.p99Ms);
  EXPECT_LE(after.p50Ms, after.p95Ms);
  EXPECT_LE(after.p95Ms, after.p99Ms);
  server.stop();
}

// A long-running daemon keeps only the newest kMaxTerminalJobs finished
// jobs: the oldest-finished ids answer like unknown ones, the newest stay
// retrievable.
TEST(RequestQueueTest, TerminalJobTableIsBounded) {
  RequestQueue queue;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < RequestQueue::kMaxTerminalJobs + 10; ++i) {
    ids.push_back(queue.submit(WorkloadSpec{}));
    ASSERT_NE(ids.back(), 0u);
    const std::shared_ptr<Job> job = queue.claim();
    ASSERT_EQ(job->id, ids.back());
    queue.finish(job, JobStatus::Done, JobResult{});
  }
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(queue.snapshot(ids[i]).has_value()) << i;
    EXPECT_FALSE(queue.waitTerminal(ids[i]).has_value()) << i;
    EXPECT_FALSE(queue.cancel(ids[i])) << i;
  }
  EXPECT_TRUE(queue.snapshot(ids[10]).has_value());
  const std::optional<JobView> last = queue.waitTerminal(ids.back());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->status, JobStatus::Done);
}

TEST(SocketTransportTest, OversizedRequestLineGetsAnErrorAndHangup) {
  const std::string path =
      "/tmp/fmossim-servertest-long-" + std::to_string(getpid()) + ".sock";
  Server server{ServerOptions{}};
  server.start();
  SocketServer socket(server, path);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  // One byte past the cap and no newline: the daemon must stop buffering.
  const std::string big(kMaxLineBytes + 1, 'x');
  std::size_t off = 0;
  while (off < big.size()) {
    const ssize_t n = ::send(fd, big.data() + off, big.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;  // the daemon hung up after its error line
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_FALSE(reply.empty());
  ASSERT_EQ(reply.back(), '\n');
  const JsonValue err = JsonValue::parse(reply.substr(0, reply.size() - 1));
  EXPECT_FALSE(err.boolOr("ok", true));
  EXPECT_NE(err.stringOr("error", "").find("exceeds"), std::string::npos);

  // The daemon keeps serving other connections.
  SocketClient client(path);
  JsonValue statsReq = JsonValue::makeObject();
  statsReq.set("verb", JsonValue::makeString("stats"));
  EXPECT_TRUE(client.request(statsReq).boolOr("ok", false));
  server.stop();
  socket.stop();
}

TEST(SocketTransportTest, FullRoundTripOverUnixSocket) {
  const std::string path =
      "/tmp/fmossim-servertest-" + std::to_string(getpid()) + ".sock";
  Server server{ServerOptions{}};
  server.start();
  SocketServer socket(server, path);

  {
    SocketClient client(path);
    const JsonValue submitted = client.request(submitRequest(7));
    ASSERT_TRUE(submitted.boolOr("ok", false));
    JsonValue resultReq = JsonValue::makeObject();
    resultReq.set("verb", JsonValue::makeString("result"));
    resultReq.set("id", JsonValue::makeU64(submitted.u64Or("id", 0)));
    const JsonValue resolved = client.request(resultReq);
    ASSERT_EQ(resolved.stringOr("status", ""), "done");
    EXPECT_EQ(JobResult::fromJson(resolved.get("result")).checksum,
              directChecksum(7));

    // A second connection shares the daemon state.
    SocketClient other(path);
    JsonValue statsReq = JsonValue::makeObject();
    statsReq.set("verb", JsonValue::makeString("stats"));
    EXPECT_EQ(other.request(statsReq).get("stats").u64Or("completed", 0), 1u);

    JsonValue down = JsonValue::makeObject();
    down.set("verb", JsonValue::makeString("shutdown"));
    EXPECT_TRUE(client.request(down).boolOr("ok", false));
  }
  socket.waitShutdown();  // shutdown verb ends the accept loop
  server.stop();
  socket.stop();
}

TEST(LoadGenTest, InprocRunVerifiesAndReportsReuse) {
  LoadGenOptions opts;
  opts.inproc = true;
  opts.circuits = 2;
  opts.sequencesPerCircuit = 2;
  opts.requests = 10;
  // A live engine re-running its bound workload serves from its in-memory
  // checkpoint without consulting the store, so store hits require an engine
  // to be rebound away and back. One engine, one worker, one client makes
  // that deterministic: every non-adjacent repeat in the zipf schedule is a
  // guaranteed store hit, independent of thread scheduling.
  opts.concurrency = 1;
  opts.inprocServer.poolEngines = 1;
  opts.inprocServer.workers = 1;
  opts.numNodes = 14;
  opts.numInputs = 4;
  opts.numFaults = 16;
  opts.numPatterns = 8;
  opts.expectStoreHits = 1;
  opts.quiet = true;
  const LoadGenReport report = runLoadGen(opts);
  EXPECT_EQ(report.requests, 10u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.checksumMismatches, 0u);
  EXPECT_EQ(report.distinctWorkloads, 4u);
  EXPECT_GE(report.storeHits, 1u);
  // Recordings must stay below requests: repeats reuse, never re-record.
  EXPECT_LT(report.storeRecordings, 10u);
  EXPECT_GE(report.p99Ms, report.p50Ms);
}

}  // namespace
}  // namespace fmossim::serve
