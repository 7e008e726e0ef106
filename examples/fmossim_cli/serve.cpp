// fmossim_cli serve: the long-lived fault-simulation daemon (engine pool,
// shared checkpoint store, bounded queue; NDJSON over a Unix socket, see
// docs/SERVICE.md).
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace fmossim::cli {

namespace {

int serveUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s serve --socket PATH   Unix-domain socket to listen on\n"
      "                [--pool N       persistent engine slots (default 4)]\n"
      "                [--workers N    job worker threads (default 2,\n"
      "                                clamped to --pool)]\n"
      "                [--queue N      queued-job bound before backpressure\n"
      "                                (default 64)]\n"
      "                [--checkpoint-budget SIZE  shared checkpoint-store\n"
      "                                memory budget (bytes, k/m/g suffix;\n"
      "                                0 = unbounded)]\n"
      "                [--store-entries N  max cached good-machine recordings\n"
      "                                (default 64, LRU-evicted)]\n"
      "                [--quiet]\n"
      "Runs until a client sends {\"verb\":\"shutdown\"}. Protocol: one JSON\n"
      "request per line, one JSON response per line (docs/SERVICE.md).\n",
      argv0);
  return to == stderr ? 2 : 0;
}

}  // namespace

bool takeDaemonFlag(Args& args, serve::ServerOptions& opts) {
  const std::string& f = args.flag();
  if (f == "--pool") opts.poolEngines = args.count(1u << 16);
  else if (f == "--workers") opts.workers = args.count(1u << 16);
  else if (f == "--queue") opts.queueBound = args.count(1u << 20);
  else if (f == "--checkpoint-budget") opts.checkpointBudgetBytes = args.bytes();
  else return false;
  return true;
}

int runServe(int argc, char** argv) {
  serve::ServerOptions opts;
  std::string socketPath;
  bool quiet = false;
  for (Args a(argc, argv, 2); a.next();) {
    const std::string& arg = a.flag();
    if (takeDaemonFlag(a, opts)) continue;
    if (arg == "--socket") socketPath = a.value();
    else if (arg == "--store-entries") opts.storeEntries = a.count(1u << 20);
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help") return serveUsage(stdout, argv[0]);
    else {
      a.rejectFlag();
      return serveUsage(stderr, argv[0]);
    }
  }
  if (socketPath.empty()) {
    std::fprintf(stderr, "serve: --socket PATH is required\n");
    return 2;
  }

  serve::Server server(opts);
  server.start();
  serve::SocketServer socket(server, socketPath);
  if (!quiet) {
    std::printf("serving on %s (pool %u, workers %u, queue %zu, "
                "checkpoint budget %zu bytes)\n",
                socketPath.c_str(), opts.poolEngines, opts.workers,
                opts.queueBound, opts.checkpointBudgetBytes);
    std::fflush(stdout);
  }
  socket.waitShutdown();  // a client's shutdown verb ends the accept loop
  server.stop();          // wakes blocked result waiters, joins workers
  socket.stop();          // closes remaining connections, joins their threads
  if (!quiet) {
    const serve::ServerStats stats = server.stats();
    std::printf("shutdown after %.1f s: %llu completed, %llu failed, %llu "
                "cancelled; store hits %llu, recordings %llu\n",
                stats.uptimeSeconds,
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.cancelled),
                static_cast<unsigned long long>(stats.storeHits),
                static_cast<unsigned long long>(stats.storeRecordings));
  }
  return 0;
}

}  // namespace fmossim::cli
