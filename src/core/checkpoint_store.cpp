#include "core/checkpoint_store.hpp"

#include "patterns/pattern_source.hpp"
#include "util/hash.hpp"

namespace fmossim {

namespace {

/// The simulation options that shape the recorded good-machine trace.
std::uint64_t simOptionsFingerprint(const FsimOptions& options) {
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, options.sim.settleLimit);
  fnvMix(h, options.sim.staticPartitions ? 1 : 0);
  return h;
}

}  // namespace

std::uint64_t networkFingerprint(const Network& net) {
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, net.domain().numSizes());
  fnvMix(h, net.domain().numStrengths());
  fnvMix(h, net.numNodes());
  for (std::uint32_t n = 0; n < net.numNodes(); ++n) {
    const Network::Node& node = net.node(NodeId(n));
    fnvMix(h, (std::uint64_t(node.size) << 1) | (node.isInput ? 1 : 0));
  }
  fnvMix(h, net.numTransistors());
  for (std::uint32_t t = 0; t < net.numTransistors(); ++t) {
    const Network::Transistor& tr = net.transistor(TransId(t));
    fnvMix(h, (std::uint64_t(static_cast<std::uint8_t>(tr.type)) << 8) |
                  std::uint64_t(tr.strength));
    fnvMix(h,
           (std::uint64_t(tr.gate.value) << 32) | std::uint64_t(tr.source.value));
    fnvMix(h, tr.drain.value);
    fnvMix(h, tr.goodConduction.has_value()
                  ? 1 + std::uint64_t(static_cast<std::uint8_t>(*tr.goodConduction))
                  : 0);
  }
  return h;
}

CheckpointStore::CheckpointStore() : CheckpointStore(Options{}) {}

CheckpointStore::CheckpointStore(Options options)
    : options_(std::move(options)) {}

std::shared_ptr<const GoodMachineCheckpoint> CheckpointStore::acquire(
    const Network& net, PatternSource& source, const FsimOptions& options,
    bool* recordedNow) {
  const Key key{networkFingerprint(net), source.fingerprint(),
                simOptionsFingerprint(options)};
  if (recordedNow != nullptr) *recordedNow = false;
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = cache_.find(key); it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    ++hits_;
    return it->second.checkpoint;
  }
  if (recordedNow != nullptr) *recordedNow = true;
  auto checkpoint = std::make_shared<const GoodMachineCheckpoint>(
      GoodMachineCheckpoint::record(net, source, options, options_.budgetBytes,
                                    options_.spillDir));
  ++recordings_;
  lru_.push_front(key);
  cache_.emplace(key, Entry{checkpoint, lru_.begin()});
  while (cache_.size() > std::max<std::size_t>(1, options_.maxEntries)) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  return checkpoint;
}

std::shared_ptr<const GoodMachineCheckpoint> CheckpointStore::acquire(
    const Network& net, const TestSequence& seq, const FsimOptions& options,
    bool* recordedNow) {
  MaterializedPatternSource source(seq);
  return acquire(net, source, options, recordedNow);
}

void CheckpointStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  lru_.clear();
}

std::uint64_t CheckpointStore::recordings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recordings_;
}

std::uint64_t CheckpointStore::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t CheckpointStore::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

std::size_t CheckpointStore::memoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, entry] : cache_) {
    total += entry.checkpoint->memoryBytes();
  }
  return total;
}

}  // namespace fmossim
