// serve_mixed: an open loop of mixed-tenant requests against the in-process
// daemon (serve::Server at its ServerOptions defaults) over its Unix socket.
//
// Sixteen tenant workloads are drawn from the seed. Each tenant belongs to a
// fixed size class by its zipf rank; its circuit is drawn until the tenant's
// reference run does an amount of work (nodeEvals) inside the class's band,
// so every seed offers the daemon the same kind of load on different
// circuits. Requests are sent on a seeded schedule — evenly spaced at the
// offered rate with seeded jitter, zipf-skewed over the tenants — from one
// submitting connection; one result connection per daemon worker collects
// the results. Latency runs from each request's scheduled send time to
// the receipt of its result. Every response is checked, after the timed
// window, against a reference computed during set-up by a direct jobs=1
// Engine run (gen, stream) or a naive runSeuCampaign (seu).
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "api/engine.hpp"
#include "common.hpp"
#include "perf/bench_runner.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "seu/seu_campaign.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace fmossim;
using namespace fmossim::serve;

namespace {

/// A tenant size class: generator pins plus the band of reference work
/// (nodeEvals) a drawn circuit must land in.
struct TenantClass {
  const char* name;
  const char* kind;  ///< "gen", "stream" or "seu" (the exec-time split)
  std::uint32_t nodes;
  std::uint32_t inputs;
  std::uint32_t faults;  ///< fault universe, or SEU injections
  std::uint32_t patterns;
  std::uint64_t evalsLo;
  std::uint64_t evalsHi;
};

constexpr TenantClass kSmall{"small", "gen", 24, 6, 32, 16, 14000, 15000};
constexpr TenantClass kMedium{"medium", "gen", 48, 6, 96, 32, 195000, 210000};
constexpr TenantClass kStream{"stream", "stream", 24, 6, 32, 16, 14000, 15000};
constexpr TenantClass kSeu{"seu", "seu", 32, 6, 64, 48, 90000, 150000};

/// Class of the tenant at each zipf rank (rank 0 is the hottest). With zipf
/// s = 1.1 the traffic is about 67% small, 16% stream, 8% seu and 11%
/// medium. The five medium tenants sit at cool ranks of similar weight, so
/// the slowest 5% of requests are about half of the medium ones and
/// req_p95_ms lands mid-class, set by all five circuits rather than by the
/// slowest one.
const TenantClass* const kRanks[] = {
    &kSmall, &kSmall,  &kStream, &kSmall,  &kSeu,    &kSmall,
    &kStream, &kSmall, &kMedium, &kSeu,    &kMedium, &kSmall,
    &kMedium, &kStream, &kMedium, &kMedium};
constexpr double kZipf = 1.1;
/// The small and stream bands are narrow (about 4% of small draws land in
/// them): the hottest tenants set req_p50_ms, so a wide band let the seed
/// alone move it by a third.
constexpr int kMaxDraws = 256;
/// Length of the windows whose steal decides which requests are quiet.
constexpr double kWindowSeconds = 0.5;

struct Tenant {
  WorkloadSpec spec;
  const char* kind = "gen";
  std::uint64_t checksum = 0;  ///< reference result
  std::uint64_t evals = 0;
  double weight = 0.0;
};

WorkloadSpec makeSpec(const TenantClass& c, std::uint64_t circuitSeed) {
  WorkloadSpec s;
  s.circuitSeed = circuitSeed;
  s.numNodes = c.nodes;
  s.numInputs = c.inputs;
  s.numPatterns = c.patterns;
  s.jobs = 2;
  if (std::string(c.kind) == "seu") {
    s.seuInjections = c.faults;
    s.seuSeed = circuitSeed ^ 0x9e3779b97f4a7c15ULL;
  } else {
    s.numFaults = c.faults;
    s.stream = std::string(c.kind) == "stream";
  }
  return s;
}

/// Reference result of a spec, computed without the daemon.
std::pair<std::uint64_t, std::uint64_t> reference(const WorkloadSpec& spec) {
  const BuiltWorkload w = [&] {
    Span s("gen.expand");
    return buildWorkload(spec);
  }();
  Span s("bench.reference");
  if (spec.isSeu()) {
    seu::CampaignOptions o;
    o.policy = spec.policy;
    o.naive = true;
    const seu::CampaignResult r =
        seu::runSeuCampaign(w.net, w.seq, w.seuCampaign, o);
    return {r.checksum(), r.totalNodeEvals};
  }
  EngineOptions o = specEngineOptions(spec);
  o.jobs = 1;
  Engine engine(w.net, w.faults, o);
  FaultSimResult r;
  if (w.streamConfig.has_value()) {
    GeneratedPatternSource source(*w.streamConfig);
    r = engine.runStream(source);
  } else {
    r = engine.run(w.seq);
  }
  return {perf::resultChecksum(r), r.totalNodeEvals};
}

/// The seed's tenants, with references and zipf weights. Tiny runs keep one
/// tenant of each class. Throws, naming the tenant and its class, when no
/// draw lands in the class's band (`unreachableBands` forces that, for the
/// self-test).
std::vector<Tenant> drawTenants(std::uint64_t seed, bool tiny,
                                bool unreachableBands) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x51ed27);
  std::vector<std::size_t> ranks = {0, 2, 4, 8};
  if (!tiny) {
    ranks.clear();
    for (std::size_t r = 0; r < std::size(kRanks); ++r) ranks.push_back(r);
  }
  std::vector<Tenant> tenants;
  for (const std::size_t r : ranks) {
    const TenantClass& c = *kRanks[r];
    Tenant t;
    t.kind = c.kind;
    t.weight = std::pow(static_cast<double>(r + 1), -kZipf);
    const std::uint64_t lo = unreachableBands ? c.evalsHi + 1 : c.evalsLo;
    bool inBand = false;
    for (int draw = 0; draw < kMaxDraws && !inBand; ++draw) {
      t.spec = makeSpec(c, rng.next() | 1);
      std::tie(t.checksum, t.evals) = reference(t.spec);
      inBand = t.evals >= lo && t.evals <= c.evalsHi;
    }
    if (!inBand) {
      throw std::runtime_error(
          "tenant " + std::to_string(r) + " (class " + c.name + "): no circuit in " +
          std::to_string(kMaxDraws) + " draws has nodeEvals in [" +
          std::to_string(lo) + ", " + std::to_string(c.evalsHi) + "]");
    }
    tenants.push_back(std::move(t));
  }
  return tenants;
}

JsonValue submitRequest(const WorkloadSpec& spec) {
  JsonValue v = JsonValue::makeObject();
  v.set("verb", JsonValue::makeString("submit"));
  v.set("workload", spec.toJson());
  return v;
}

JsonValue resultRequest(std::uint64_t id) {
  JsonValue v = JsonValue::makeObject();
  v.set("verb", JsonValue::makeString("result"));
  v.set("id", JsonValue::makeU64(id));
  return v;
}

/// One request as the client saw it.
struct Outcome {
  std::size_t tenant = 0;
  double scheduled = 0.0;  ///< nowSeconds() it was due
  double sent = 0.0;       ///< submit written
  double acked = 0.0;      ///< submit answered
  double resultSent = 0.0;
  double received = 0.0;   ///< result answered
  std::uint64_t id = 0;    ///< 0: refused
  bool done = false;       ///< job finished "done"
  JobResult result;
  std::string error;
};

/// submit + result, closed, for the warm pass.
Outcome roundTrip(SocketClient& client, const WorkloadSpec& spec) {
  Outcome o;
  const JsonValue ack = client.request(submitRequest(spec));
  o.id = ack.boolOr("ok", false) ? ack.u64Or("id", 0) : 0;
  if (o.id == 0) {
    o.error = ack.stringOr("error", "refused");
    return o;
  }
  const JsonValue res = client.request(resultRequest(o.id));
  o.done = res.stringOr("status", "") == "done";
  if (const JsonValue* r = res.find("result")) o.result = JobResult::fromJson(*r);
  if (!o.done) o.error = "job finished '" + res.stringOr("status", "?") + "'";
  return o;
}

/// A running daemon: core, socket front end.
struct Daemon {
  std::unique_ptr<Server> server;
  std::unique_ptr<SocketServer> socket;
  std::string path;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  void stop() {
    if (socket) socket->stop();
    if (server) server->stop();
    socket.reset();
    server.reset();
  }
};

/// Starts a daemon. Set-up work the service itself does, timed as setup_s
/// together with the warm pass below.
std::unique_ptr<Daemon> startDaemon() {
  Span s("serve.start");
  auto d = std::make_unique<Daemon>();
  std::error_code ec;
  std::filesystem::create_directories(".bench_build", ec);
  d->path = ".bench_build/perfbench-" +
            std::to_string(static_cast<long>(getpid())) + ".sock";
  d->server = std::make_unique<Server>(ServerOptions{});
  d->server->start();
  d->socket = std::make_unique<SocketServer>(*d->server, d->path);
  return d;
}

/// One warm pass over the distinct tenants: every good machine is recorded
/// into the daemon's store before the timed window. Each response is
/// checked against its tenant's reference.
void warmPass(const Daemon& daemon, const std::vector<Tenant>& tenants,
              Report& report) {
  Span warm("serve.warm");
  SocketClient client(daemon.path);
  for (const Tenant& t : tenants) {
    const Outcome o = roundTrip(client, t.spec);
    ++report.attempted;
    if (!o.done || o.result.checksum != t.checksum) {
      report.fail("warm pass: tenant " + std::to_string(t.spec.circuitSeed) +
                  " " + (o.error.empty() ? "checksum mismatch" : o.error));
    }
  }
}

/// Zipf tenant draws and jittered, evenly spaced send offsets (seconds).
std::vector<std::pair<double, std::size_t>> buildSchedule(
    const std::vector<Tenant>& tenants, std::uint64_t seed, double rate,
    double seconds) {
  std::vector<double> cdf;
  double total = 0.0;
  for (const Tenant& t : tenants) cdf.push_back(total += t.weight);
  Rng rng(seed ^ 0x5bf0363546069717ULL);
  const auto uniform = [&rng] {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  };
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  std::vector<std::pair<double, std::size_t>> schedule;
  for (std::size_t i = 0; i < n; ++i) {
    const double at = (static_cast<double>(i) + 0.25 + 0.5 * uniform()) / rate;
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), uniform() * total) -
        cdf.begin());
    schedule.emplace_back(at, std::min(k, tenants.size() - 1));
  }
  return schedule;
}

}  // namespace

Report runServeWorkload(const RunOptions& options) {
  const std::size_t mark = Tracer::count();
  Report report;

  // The tenant draw and its references are the benchmark's own input
  // generation: done once, outside setup_s.
  std::vector<Tenant> tenants;
  try {
    Span s("bench.tenants");
    tenants = drawTenants(options.seed, options.tiny, options.unreachableBands);
  } catch (const std::runtime_error& e) {
    ++report.attempted;
    report.fail(e.what());
    return report;
  }

  // Set-up, repeated: daemon start plus warm pass. The last pass's daemon
  // serves the timed loop.
  std::vector<double> setupSeconds;
  std::vector<double> setupSteal;
  std::unique_ptr<Daemon> daemon;
  Report pass;
  const double setupStart = nowSeconds();
  while (moreSetupPasses(setupSeconds.size(), nowSeconds() - setupStart)) {
    daemon.reset();  // stop the previous pass's daemon before timing the next
    pass = Report{};
    const double steal0 = hostStealTicks();
    const double t0 = nowSeconds();
    {
      Span s("bench.setup");
      daemon = startDaemon();
      warmPass(*daemon, tenants, pass);
    }
    setupSeconds.push_back(nowSeconds() - t0);
    setupSteal.push_back(stealSince(steal0));
  }
  report.attempted += pass.attempted;  // the serving daemon's warm pass
  report.failed += pass.failed;
  report.errors = pass.errors;
  if (options.corruptServeReference) tenants.front().checksum ^= 1;

  const auto schedule = buildSchedule(tenants, options.seed,
                                      options.serveRate, options.seconds);
  std::vector<Outcome> outcomes(schedule.size());
  Server& server = *daemon->server;
  const ServerStats before = server.stats();

  // ---- timed open loop ----
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> inFlight;
  bool submitterDone = false;
  std::string clientError;
  const double t0 = nowSeconds() + 0.01;
  // One result connection per daemon worker: at most that many jobs run at
  // once and they start in submission order, so the oldest outstanding
  // requests are exactly the running ones and no result waits behind
  // another (a single in-order result connection charged small requests
  // the run time of a medium one finishing on the other worker).
  const auto collect = [&] {
    try {
      SocketClient client(daemon->path);
      for (;;) {
        std::size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !inFlight.empty() || submitterDone; });
          if (inFlight.empty()) return;
          i = inFlight.front();
          inFlight.pop_front();
        }
        Outcome& o = outcomes[i];
        o.resultSent = nowSeconds();
        const JsonValue res = client.request(resultRequest(o.id));
        o.received = nowSeconds();
        o.done = res.stringOr("status", "") == "done";
        if (const JsonValue* r = res.find("result")) {
          o.result = JobResult::fromJson(*r);
        }
        if (!o.done) o.error = "job finished '" + res.stringOr("status", "?") + "'";
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      clientError = e.what();
    }
  };
  // Steal and process CPU at the start of each window of the timed loop,
  // plus one sample when it ends (see hostStealTicks).
  std::mutex sampleMu;
  std::condition_variable sampleCv;
  bool sampling = true;
  std::vector<double> stealAt;
  std::vector<double> cpuAt;
  std::thread sampler([&] {
    std::unique_lock<std::mutex> lock(sampleMu);
    for (std::size_t k = 0;; ++k) {
      const double wait = t0 + static_cast<double>(k) * kWindowSeconds - nowSeconds();
      if (sampleCv.wait_for(lock, std::chrono::duration<double>(std::max(0.0, wait)),
                            [&] { return !sampling; })) {
        return;
      }
      stealAt.push_back(hostStealTicks());
      cpuAt.push_back(processCpuSeconds());
    }
  });
  std::vector<std::thread> receivers;
  const unsigned workers = server.stats().workers;
  for (unsigned w = 0; w < workers; ++w) receivers.emplace_back(collect);
  try {
    SocketClient client(daemon->path);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      Outcome& o = outcomes[i];
      o.tenant = schedule[i].second;
      o.scheduled = t0 + schedule[i].first;
      const double wait = o.scheduled - nowSeconds();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      o.sent = nowSeconds();
      const JsonValue ack = client.request(submitRequest(tenants[o.tenant].spec));
      o.acked = nowSeconds();
      o.id = ack.boolOr("ok", false) ? ack.u64Or("id", 0) : 0;
      if (o.id == 0) {
        o.error = "refused: " + ack.stringOr("error", "?");
        continue;
      }
      std::lock_guard<std::mutex> lock(mu);
      inFlight.push_back(i);
      cv.notify_one();
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu);
    clientError = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitterDone = true;
    cv.notify_all();
  }
  for (std::thread& t : receivers) t.join();
  {
    std::lock_guard<std::mutex> lock(sampleMu);
    sampling = false;
  }
  sampleCv.notify_all();
  sampler.join();
  stealAt.push_back(hostStealTicks());
  cpuAt.push_back(processCpuSeconds());
  double lastReceipt = t0;
  for (const Outcome& o : outcomes) lastReceipt = std::max(lastReceipt, o.received);
  const ServerStats after = server.stats();
  daemon->stop();

  // ---- verification and statistics, outside the timed window ----
  std::vector<double> windowSteal;
  for (std::size_t k = 0; k + 1 < stealAt.size(); ++k) {
    windowSteal.push_back(stealAt[k] < 0.0 || stealAt[k + 1] < 0.0
                              ? -1.0
                              : stealAt[k + 1] - stealAt[k]);
  }
  const std::vector<bool> quietWindow = quietSamples(windowSteal);
  double quietCpuSeconds = 0.0;
  for (std::size_t k = 0; k < quietWindow.size(); ++k) {
    if (quietWindow[k]) quietCpuSeconds += cpuAt[k + 1] - cpuAt[k];
  }
  // The timing statistics cover the requests due in quiet windows; a failed
  // request counts as missing every latency limit wherever it was due.
  const auto quiet = [&](const Outcome& o) {
    const auto w = static_cast<std::size_t>(
        std::max(0.0, (o.scheduled - t0) / kWindowSeconds));
    return w < quietWindow.size() && quietWindow[w];
  };
  constexpr double kMissed = std::numeric_limits<double>::infinity();
  std::vector<double> latencyMs, execMs, queueMs, wireMs, lateMs, allLatencyMs;
  std::vector<double> execByKind[3];
  std::size_t completed = 0, quietCompleted = 0, poolRequests = 0, reused = 0,
              rejected = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const Tenant& t = tenants[o.tenant];
    ++report.attempted;
    lateMs.push_back((o.sent - o.scheduled) * 1000.0);
    std::string err = o.error;
    if (o.id == 0) ++rejected;
    if (err.empty() && o.result.checksum != t.checksum) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "checksum 0x%016llx, expected 0x%016llx",
                    static_cast<unsigned long long>(o.result.checksum),
                    static_cast<unsigned long long>(t.checksum));
      err = buf;
    }
    if (!err.empty()) {
      report.fail("request " + std::to_string(i) + " (tenant " +
                  std::to_string(o.tenant) + "): " + err);
      latencyMs.push_back(kMissed);
      allLatencyMs.push_back(kMissed);
      continue;
    }
    ++completed;
    allLatencyMs.push_back((o.received - o.scheduled) * 1000.0);
    const std::string kind = t.kind;
    if (quiet(o)) {
      ++quietCompleted;
      latencyMs.push_back(allLatencyMs.back());
      execMs.push_back(o.result.wallSeconds * 1000.0);
      queueMs.push_back(o.result.queuedSeconds * 1000.0);
      wireMs.push_back((o.received - o.sent - o.result.latencySeconds) * 1000.0);
      execByKind[kind == "gen" ? 0 : kind == "stream" ? 1 : 2].push_back(
          o.result.wallSeconds * 1000.0);
    }
    if (kind != "seu") {
      ++poolRequests;
      if (o.result.engineReused) ++reused;
    }
    if (Tracer::enabled()) {
      // The request's spans, reconstructed after the fact: the server's
      // queue and execution intervals are placed by its own durations,
      // anchored mid-way through the submit round trip.
      const std::uint64_t rid = i + 1;
      const std::int64_t root =
          Tracer::record("serve.request", o.scheduled, o.received, -1, rid);
      Tracer::record("serve.submit", o.sent, o.acked, root, rid);
      const double arrived = 0.5 * (o.sent + o.acked);
      const double started = arrived + o.result.queuedSeconds;
      Tracer::record("serve.queue_wait", arrived, started, root, rid);
      Tracer::record("serve.exec." + kind, started,
                     arrived + o.result.latencySeconds, root, rid);
      Tracer::record("serve.result", o.resultSent, o.received, root, rid);
    }
  }
  if (!clientError.empty()) report.fail("client: " + clientError);

  const double window = lastReceipt - t0;
  const double tail = tailPercentile(latencyMs.size());
  const auto finite = [](double v) { return std::isfinite(v) ? v : 1e12; };
  report.add("setup_s", median(quietValues(setupSeconds, setupSteal)), "s");
  report.add("op_ms", median(execMs), "ms");
  report.add("op_cpu_ms",
             quietCompleted > 0
                 ? quietCpuSeconds * 1000.0 / static_cast<double>(quietCompleted)
                 : 1e12,
             "ms");
  report.add("peak_rss_mb", peakRssMiB(), "MiB");
  report.add("req_p50_ms", finite(percentile(latencyMs, 50.0)), "ms");
  report.add("req_p95_ms", finite(percentile(latencyMs, tail)), "ms");
  report.add("req_per_s", static_cast<double>(completed) / window, "1/s");
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    std::vector<double> ex;
    for (const Outcome& o : outcomes) {
      if (o.tenant == k && o.done) ex.push_back(o.result.wallSeconds * 1000.0);
    }
    std::fprintf(stderr, "serve: tenant %2zu %-6s evals %8llu requests %4zu exec p50 %.3f ms\n",
                 k, tenants[k].kind,
                 static_cast<unsigned long long>(tenants[k].evals), ex.size(),
                 median(ex));
  }
  std::fprintf(stderr,
               "serve: %zu requests at %.1f/s offered, %zu completed, latency "
               "over the %zu due in quiet windows (window steal median %.0f "
               "ticks), tail percentile p%.1f; over all requests p50 %.3f ms "
               "p%.1f %.3f ms\n",
               outcomes.size(), options.serveRate, completed, latencyMs.size(),
               median(windowSteal), tail, percentile(allLatencyMs, 50.0),
               tailPercentile(allLatencyMs.size()),
               percentile(allLatencyMs, tailPercentile(allLatencyMs.size())));

  if (!Tracer::enabled()) return report;

  const auto frac = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double hits = static_cast<double>(after.storeHits - before.storeHits);
  const double recordings =
      static_cast<double>(after.storeRecordings - before.storeRecordings);
  report.add("serve.queue_ms_p50", median(queueMs), "ms");
  report.add("serve.queue_ms_p95", percentile(queueMs, tailPercentile(queueMs.size())),
             "ms");
  report.add("serve.exec_ms_p50", median(execMs), "ms");
  report.add("serve.exec_ms_p50.gen", median(execByKind[0]), "ms");
  report.add("serve.exec_ms_p50.stream", median(execByKind[1]), "ms");
  report.add("serve.exec_ms_p50.seu", median(execByKind[2]), "ms");
  report.add("serve.wire_ms_p50", median(wireMs), "ms");
  report.add("serve.engine_reuse_frac",
             frac(static_cast<double>(reused), static_cast<double>(poolRequests)),
             "fraction");
  report.add("serve.store_hit_frac", frac(hits, hits + recordings), "fraction");
  report.add("serve.pool_builds",
             static_cast<double>(after.pool.builds - before.pool.builds), "count");
  report.add("serve.pool_rebinds",
             static_cast<double>(after.pool.rebinds - before.pool.rebinds), "count");
  report.add("serve.rejected", static_cast<double>(rejected), "count");
  report.add("gen.expand_ms", median(Tracer::durationsMs("gen.expand", mark)), "ms");
  report.add("bench.gen_late_p95_ms", percentile(lateMs, tailPercentile(lateMs.size())),
             "ms");
  return report;
}

}  // namespace perfbench
