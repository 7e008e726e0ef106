#include "sched/detection_history.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fmossim::sched {

namespace {

/// Sidecar header line. Versioned so a future layout change invalidates old
/// files instead of misreading them (loads fall back to no-history).
constexpr const char* kMagic = "fmossim-history";
constexpr unsigned kVersion = 1;

}  // namespace

bool saveHistoryFile(const std::string& path,
                     const DetectionHistory& history) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok =
      std::fprintf(f, "%s v%u\nfaults %016" PRIx64 " %zu\n", kMagic, kVersion,
                   history.faultsFingerprint,
                   history.detectedAtPattern.size()) > 0;
  for (const std::int32_t d : history.detectedAtPattern) {
    if (!ok) break;
    ok = std::fprintf(f, "%" PRId32 "\n", d) > 0;
  }
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

std::optional<DetectionHistory> loadHistoryFile(
    const std::string& path, std::uint64_t expectedFingerprint) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  DetectionHistory h;
  char magic[32];
  unsigned version = 0;
  std::size_t count = 0;
  bool ok = std::fscanf(f, "%31s v%u", magic, &version) == 2 &&
            std::strcmp(magic, kMagic) == 0 && version == kVersion;
  ok = ok && std::fscanf(f, " faults %" SCNx64 " %zu", &h.faultsFingerprint,
                         &count) == 2;
  // Fingerprint mismatch means the file describes a different fault
  // universe: stale history must not shape this run's schedule.
  ok = ok &&
       (expectedFingerprint == 0 || h.faultsFingerprint == expectedFingerprint);
  // No reserve(count): the count is untrusted input, and a short file must
  // fall back to no history rather than allocate what it claims.
  if (ok) {
    for (std::size_t i = 0; i < count && ok; ++i) {
      std::int32_t d = 0;
      ok = std::fscanf(f, " %" SCNd32, &d) == 1 && d >= -1;
      h.detectedAtPattern.push_back(d);
    }
    // Strict tail: trailing garbage means a truncated or hand-damaged file.
    char extra[2];
    ok = ok && std::fscanf(f, " %1s", extra) != 1;
  }
  std::fclose(f);
  if (!ok) return std::nullopt;
  return h;
}

void HistoryStore::record(std::uint64_t faultsFingerprint,
                          std::vector<std::int32_t> detectedAtPattern) {
  auto entry = std::make_shared<DetectionHistory>();
  entry->faultsFingerprint = faultsFingerprint;
  entry->detectedAtPattern = std::move(detectedAtPattern);
  std::lock_guard<std::mutex> lock(mu_);
  entries_[faultsFingerprint] = std::move(entry);
}

std::shared_ptr<const DetectionHistory> HistoryStore::lookup(
    std::uint64_t faultsFingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(faultsFingerprint);
  return it == entries_.end() ? nullptr : it->second;
}

std::size_t HistoryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace fmossim::sched
