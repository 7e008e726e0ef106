#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>

#include <sys/resource.h>

namespace perfbench {

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::fail(const std::string& message) {
  ++failed;
  if (errors.size() < 8) errors.push_back(message);
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

double tailPercentile(std::size_t n, double cap) {
  if (n <= 20) return 50.0;
  return std::min(cap, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sample.size()));
  const std::size_t idx =
      std::min(sample.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return sample[idx];
}

double nowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double hostStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1.0;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &user, &nice, &system, &idle, &iowait, &irq,
                            &softirq, &steal);
  std::fclose(f);
  return n == 8 ? static_cast<double>(steal) : -1.0;
}

std::vector<bool> quietSamples(const std::vector<double>& steal) {
  const bool readable =
      std::none_of(steal.begin(), steal.end(), [](double s) { return s < 0.0; });
  const double limit = percentile(steal, kQuietPercentile);
  std::vector<bool> quiet;
  for (const double s : steal) quiet.push_back(!readable || s <= limit);
  return quiet;
}

double stealSince(double start) {
  const double now = hostStealTicks();
  return start < 0.0 || now < 0.0 ? -1.0 : now - start;
}

std::vector<double> quietValues(const std::vector<double>& values,
                                const std::vector<double>& steal) {
  const std::vector<bool> quiet = quietSamples(steal);
  std::vector<double> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (quiet[i]) out.push_back(values[i]);
  }
  return out;
}

// ----------------------------------------------------------------- tracer --

namespace {

struct TracerState {
  std::mutex mu;
  bool enabled = false;
  std::vector<SpanRecord> spans;
  std::uint32_t nextThread = 0;
};

TracerState& state() {
  static TracerState s;
  return s;
}

thread_local std::vector<std::int64_t> tlsStack;
thread_local std::int64_t tlsThread = -1;

std::uint32_t threadOrdinal(TracerState& s) {
  if (tlsThread < 0) tlsThread = s.nextThread++;
  return static_cast<std::uint32_t>(tlsThread);
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi].
double coveredSeconds(std::vector<std::pair<double, double>> iv, double lo,
                      double hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double curLo = 0.0;
  double curHi = -1.0;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > curHi) {
      if (curHi > curLo) covered += curHi - curLo;
      curLo = a;
      curHi = b;
    } else {
      curHi = std::max(curHi, b);
    }
  }
  if (curHi > curLo) covered += curHi - curLo;
  return covered;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Tracer::setEnabled(bool on) {
  std::lock_guard<std::mutex> lock(state().mu);
  state().enabled = on;
}

bool Tracer::enabled() {
  std::lock_guard<std::mutex> lock(state().mu);
  return state().enabled;
}

std::int64_t Tracer::open(const std::string& name, std::uint64_t requestId) {
  TracerState& s = state();
  const double t = nowSeconds();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.enabled) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.start = t;
  rec.end = -1.0;
  rec.parent = tlsStack.empty() ? -1 : tlsStack.back();
  rec.requestId = requestId;
  rec.thread = threadOrdinal(s);
  s.spans.push_back(std::move(rec));
  const auto id = static_cast<std::int64_t>(s.spans.size() - 1);
  tlsStack.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  TracerState& s = state();
  const double t = nowSeconds();
  std::lock_guard<std::mutex> lock(s.mu);
  if (static_cast<std::size_t>(id) < s.spans.size()) s.spans[id].end = t;
  if (!tlsStack.empty() && tlsStack.back() == id) tlsStack.pop_back();
}

std::int64_t Tracer::record(const std::string& name, double start, double end,
                            std::int64_t parent, std::uint64_t requestId) {
  TracerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.enabled) return -1;
  s.spans.push_back({name, start, end, parent, requestId, threadOrdinal(s)});
  return static_cast<std::int64_t>(s.spans.size() - 1);
}

std::size_t Tracer::count() {
  std::lock_guard<std::mutex> lock(state().mu);
  return state().spans.size();
}

std::vector<double> Tracer::durationsMs(const std::string& name,
                                        std::size_t from) {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(state().mu);
  const std::vector<SpanRecord>& all = state().spans;
  for (std::size_t i = from; i < all.size(); ++i) {
    const SpanRecord& r = all[i];
    if (r.name == name && r.end >= r.start) {
      out.push_back((r.end - r.start) * 1000.0);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lock(state().mu);
    all = state().spans;
  }
  // Self time: duration minus the union of the children's intervals.
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const SpanRecord& r : all) {
    if (r.parent >= 0 && static_cast<std::size_t>(r.parent) < all.size()) {
      children[r.parent].emplace_back(r.start, r.end);
    }
  }
  struct Summary {
    std::size_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
  };
  std::map<std::string, Summary> byName;
  std::vector<double> selfMs(all.size(), 0.0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& r = all[i];
    if (r.end < r.start) continue;
    const double dur = r.end - r.start;
    selfMs[i] = (dur - coveredSeconds(children[i], r.start, r.end)) * 1000.0;
    Summary& s = byName[r.name];
    ++s.count;
    s.totalMs += dur * 1000.0;
    s.selfMs += selfMs[i];
  }

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"summary\": [\n");
  std::size_t k = 0;
  for (const auto& [name, s] : byName) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"count\": %zu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}%s\n",
                 jsonEscape(name).c_str(), s.count, s.totalMs, s.selfMs,
                 ++k < byName.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& r = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"self_ms\": %.6f, \"parent\": %lld, "
                 "\"request\": %llu, \"thread\": %u}%s\n",
                 i, jsonEscape(r.name).c_str(), r.start, r.end, selfMs[i],
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.requestId), r.thread,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
