// fmossim_cli loadgen: seeded zipf-skewed mixed-tenant replay against a
// serve daemon, every response verified against a direct Engine run.
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "serve/loadgen.hpp"

namespace fmossim::cli {

namespace {

int loadgenUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s loadgen (--socket PATH | --inproc)\n"
      "                  [--seeds M       distinct circuits (default 5)]\n"
      "                  [--sequences K   test sequences per circuit "
      "(default 2)]\n"
      "                  [--requests N    requests to replay (default 50)]\n"
      "                  [--seed S        base workload seed (default 1)]\n"
      "                  [--zipf E        repeat-skew exponent (default "
      "1.1)]\n"
      "                  [--concurrency T client connections (default 4)]\n"
      "                  [--jobs J        per-request parallelism (default "
      "2)]\n"
      "                  [--no-verify     skip the direct-engine checksum "
      "oracle]\n"
      "                  [--expect-store-hits N  fail unless the daemon\n"
      "                                   reports >= N checkpoint-store "
      "hits]\n"
      "                  [--json] [--out DIR]  write BENCH_serve_mixed.json\n"
      "                  [--shutdown      send shutdown when done]\n"
      "                  [--pool N] [--workers N] [--queue N]\n"
      "                  [--checkpoint-budget SIZE]   (--inproc daemon "
      "knobs)\n"
      "                  [--quiet]\n"
      "Replays M*K distinct workloads over N zipf-skewed requests and "
      "verifies\nevery response checksum against a direct Engine run (exit 1 "
      "on any\nmismatch).\n",
      argv0);
  return to == stderr ? 2 : 0;
}

}  // namespace

int runLoadgen(int argc, char** argv) {
  serve::LoadGenOptions opts;
  for (Args a(argc, argv, 2); a.next();) {
    const std::string& arg = a.flag();
    if (takeDaemonFlag(a, opts.inprocServer)) continue;
    if (arg == "--socket") opts.socketPath = a.value();
    else if (arg == "--inproc") opts.inproc = true;
    else if (arg == "--seeds") opts.circuits = a.count(kU32Max);
    else if (arg == "--sequences") opts.sequencesPerCircuit = a.count(kU32Max);
    else if (arg == "--requests") opts.requests = a.count(kU32Max);
    else if (arg == "--seed") opts.baseSeed = a.u64();
    else if (arg == "--zipf") opts.zipfExponent = a.real();
    // Each connection is a client thread (at most one per request).
    else if (arg == "--concurrency") opts.concurrency = a.u64(1024);
    else if (arg == "--jobs") opts.jobs = a.u64(1u << 16);
    else if (arg == "--no-verify") opts.verify = false;
    else if (arg == "--expect-store-hits") opts.expectStoreHits = a.u64(kU32Max);
    else if (arg == "--json") opts.emitJson = true;
    else if (arg == "--out") opts.outDir = a.value();
    else if (arg == "--shutdown") opts.shutdownAfter = true;
    else if (arg == "--quiet") opts.quiet = true;
    else if (arg == "--help") return loadgenUsage(stdout, argv[0]);
    else {
      a.rejectFlag();
      return loadgenUsage(stderr, argv[0]);
    }
  }
  if (opts.socketPath.empty() && !opts.inproc) {
    std::fprintf(stderr, "loadgen: --socket PATH or --inproc is required\n");
    return 2;
  }

  const serve::LoadGenReport report = serve::runLoadGen(opts);
  if (!opts.quiet) {
    std::printf("loadgen: %u request(s) ok, %u failed over %u distinct "
                "workload(s)\n",
                report.requests, report.failures, report.distinctWorkloads);
    std::printf("         %.1f req/s; latency p50/p95/p99 = "
                "%.2f/%.2f/%.2f ms\n",
                report.requestsPerSec, report.p50Ms, report.p95Ms,
                report.p99Ms);
    std::printf("         engine reuses %llu; store hits %llu, recordings "
                "%llu; checksums %s\n",
                static_cast<unsigned long long>(report.engineReuses),
                static_cast<unsigned long long>(report.storeHits),
                static_cast<unsigned long long>(report.storeRecordings),
                opts.verify ? "verified bit-identical" : "not verified");
    if (!report.benchPath.empty()) {
      std::printf("wrote %s\n", report.benchPath.c_str());
    }
  }
  return 0;
}

}  // namespace fmossim::cli
