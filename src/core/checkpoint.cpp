#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <list>
#include <mutex>
#include <unordered_map>

#include "core/concurrent_sim.hpp"
#include "patterns/pattern_source.hpp"
#include "util/hash.hpp"

namespace fmossim {

namespace {

template <typename T>
std::size_t vecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Content bytes at which a chunk closes: the in-memory target, and the
/// largest spilled one.
constexpr std::size_t kMaxChunkTarget = std::size_t{64} << 10;

// --- chunk (de)serialization -------------------------------------------------
//
// A spilled chunk is six raw POD arrays behind a count header (the end-bit
// word count follows from the member count). The file is private to the
// process (created unlinked, read back by the same build), so native layout
// is fine — no endianness or padding concerns.

struct BlockHeader {
  std::uint32_t settles, phases, members, changes, inputs;
};

std::uint32_t endWords(std::size_t members) {
  return static_cast<std::uint32_t>((members + 63) >> 6);
}

template <typename T>
void appendRaw(std::string& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (v.empty()) return;
  const std::size_t off = out.size();
  out.resize(off + v.size() * sizeof(T));
  std::memcpy(out.data() + off, v.data(), v.size() * sizeof(T));
}

template <typename T>
const char* readRaw(const char* p, const char* end, std::vector<T>& v,
                    std::uint32_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  v.resize(count);
  if (count == 0) return p;
  const std::size_t bytes = std::size_t(count) * sizeof(T);
  FMOSSIM_ASSERT(p + bytes <= end, "checkpoint spill chunk truncated");
  std::memcpy(v.data(), p, bytes);
  return p + bytes;
}

std::string encodeBlock(const GoodMachineCheckpoint::SettleBlock& b) {
  std::string out;
  const BlockHeader h{static_cast<std::uint32_t>(b.settles.size()),
                      static_cast<std::uint32_t>(b.phases.size()),
                      static_cast<std::uint32_t>(b.members.size()),
                      static_cast<std::uint32_t>(b.changes.size()),
                      static_cast<std::uint32_t>(b.inputChanges.size())};
  out.append(reinterpret_cast<const char*>(&h), sizeof h);
  appendRaw(out, b.settles);
  appendRaw(out, b.phases);
  appendRaw(out, b.members);
  appendRaw(out, b.vicinityEnds);
  appendRaw(out, b.changes);
  appendRaw(out, b.inputChanges);
  return out;
}

void decodeBlock(const char* p, std::size_t size,
                 GoodMachineCheckpoint::SettleBlock& b) {
  const char* end = p + size;
  FMOSSIM_ASSERT(size >= sizeof(BlockHeader), "checkpoint spill chunk truncated");
  BlockHeader h;
  std::memcpy(&h, p, sizeof h);
  p += sizeof h;
  p = readRaw(p, end, b.settles, h.settles);
  p = readRaw(p, end, b.phases, h.phases);
  p = readRaw(p, end, b.members, h.members);
  p = readRaw(p, end, b.vicinityEnds, endWords(h.members));
  p = readRaw(p, end, b.changes, h.changes);
  p = readRaw(p, end, b.inputChanges, h.inputs);
  FMOSSIM_ASSERT(p == end, "checkpoint spill chunk has trailing bytes");
}

}  // namespace

std::size_t GoodMachineCheckpoint::SettleBlock::bytes() const {
  return vecBytes(settles) + vecBytes(phases) + vecBytes(members) +
         vecBytes(vicinityEnds) + vecBytes(changes) + vecBytes(inputChanges);
}

std::size_t GoodMachineCheckpoint::SettleBlock::contentBytes() const {
  return settles.size() * sizeof(Settle) + phases.size() * sizeof(Phase) +
         members.size() * sizeof(NodeId) + vicinityEnds.size() * 8 +
         (changes.size() + inputChanges.size()) * sizeof(Change);
}

// --- spill state ------------------------------------------------------------

/// The temp-file backing store plus the sliding replay window: an LRU cache
/// of decoded chunks, internally synchronized so concurrently replaying
/// engines (one CheckpointReader each) share it. A reader pins its current
/// chunk via shared_ptr; pinned chunks are never evicted, so spans handed
/// out by a reader stay valid until its next enterSettle().
struct GoodMachineCheckpoint::SpillState {
  int fd = -1;
  std::vector<std::uint64_t> blockOff;  ///< numChunks + 1 file offsets
  std::size_t windowBudget = 0;         ///< bytes of decoded chunks to keep
  std::size_t maxBlockBytes = 0;        ///< largest encoded chunk seen

  mutable std::mutex mu;
  struct Entry {
    std::shared_ptr<const SettleBlock> block;
    std::list<std::uint32_t>::iterator lruIt;
    std::size_t bytes = 0;
  };
  mutable std::list<std::uint32_t> lru;  ///< front = most recently used
  mutable std::unordered_map<std::uint32_t, Entry> cache;
  mutable std::size_t cachedBytes = 0;

  ~SpillState() {
    if (fd >= 0) ::close(fd);
  }

  void open(const std::string& spillDir) {
    std::string dir = spillDir;
    if (dir.empty()) {
      std::error_code ec;
      const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
      // (ternary + move assignment rather than `dir = "..."`: GCC 12's
      // -Wrestrict false-fires on the char* assign inlined here)
      dir = ec ? std::string(1, '.') : tmp.string();
    }
    std::string tmpl = dir + "/fmossim-checkpoint-XXXXXX";
    fd = ::mkstemp(tmpl.data());
    if (fd < 0) {
      throw Error("cannot create checkpoint spill file in '" + dir + "'");
    }
    // Unlink immediately: the kernel reclaims the blocks when the last fd
    // closes, so no crash can leak a spill file.
    ::unlink(tmpl.c_str());
    blockOff.push_back(0);
  }

  /// Throws for a failed spill call, naming the errno it left.
  [[noreturn]] static void ioFailed(const char* what) {
    throw Error(std::string(what) + ": " + std::strerror(errno));
  }

  void appendBlock(const std::string& encoded) {
    const std::uint64_t off = blockOff.back();
    std::size_t done = 0;
    while (done < encoded.size()) {
      const ssize_t n = ::pwrite(fd, encoded.data() + done,
                                 encoded.size() - done,
                                 static_cast<off_t>(off + done));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) ioFailed("checkpoint spill write failed");
      done += static_cast<std::size_t>(n);
    }
    blockOff.push_back(off + encoded.size());
    maxBlockBytes = std::max(maxBlockBytes, encoded.size());
  }

  void readBlock(std::uint32_t i, std::string& buf) const {
    const std::uint64_t off = blockOff[i];
    const std::size_t size = static_cast<std::size_t>(blockOff[i + 1] - off);
    buf.resize(size);
    std::size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pread(fd, buf.data() + done, size - done,
                                static_cast<off_t>(off + done));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) ioFailed("checkpoint spill read failed");
      if (n == 0) {
        throw Error("checkpoint spill read failed: unexpected end of file");
      }
      done += static_cast<std::size_t>(n);
    }
  }
};

// --- GoodMachineCheckpoint ---------------------------------------------------

GoodMachineCheckpoint::GoodMachineCheckpoint() = default;
GoodMachineCheckpoint::GoodMachineCheckpoint(GoodMachineCheckpoint&&) noexcept =
    default;
GoodMachineCheckpoint& GoodMachineCheckpoint::operator=(
    GoodMachineCheckpoint&&) noexcept = default;
GoodMachineCheckpoint::~GoodMachineCheckpoint() = default;

std::uint64_t GoodMachineCheckpoint::fingerprint(const TestSequence& seq) {
  return MaterializedPatternSource(seq).fingerprint();
}

GoodMachineCheckpoint GoodMachineCheckpoint::record(
    const Network& net, PatternSource& source, const FsimOptions& options,
    std::size_t budgetBytes, const std::string& spillDir) {
  GoodMachineCheckpoint ck;
  ck.budgetBytes_ = budgetBytes;
  if (budgetBytes > 0) {
    ck.spill_ = std::make_unique<SpillState>();
    ck.spill_->open(spillDir);
  }
  FMOSSIM_ASSERT(net.numNodes() < (std::uint32_t{1} << 30),
                 "checkpoint changes pack a node id into 30 bits");
  // Fingerprinted before recording (a streaming source takes one pass and
  // rewinds), so a generator-backed source keys the same as its
  // materialized twin.
  ck.seqFingerprint_ = source.fingerprint();
  ck.outputs_ = source.outputs();
  CheckpointRecorder rec(ck);
  // A fault-free concurrent run *is* the good machine: every phase it
  // executes is a good phase, in exactly the order and with exactly the
  // coercion timing any engine simulating this sequence reproduces.
  ConcurrentFaultSimulator sim(net, FaultList(), options, &rec);
  ck.initialGoodStates_.reserve(net.numNodes());
  for (std::uint32_t n = 0; n < net.numNodes(); ++n) {
    ck.initialGoodStates_.push_back(sim.goodState(NodeId(n)));
  }
  const FaultSimResult res = sim.run(source);
  rec.finish();
  ck.finalGoodStates_ = res.finalGoodStates;
  ck.totalGoodEvals_ = res.totalNodeEvals;
  ck.recordSeconds_ = res.totalSeconds;
  FMOSSIM_ASSERT(ck.numPatterns_ == source.numPatterns(),
                 "checkpoint recording lost a pattern boundary");
  FMOSSIM_ASSERT(
      ck.settleCount_ > 0 && ck.patternEndsAtSettle(ck.settleCount_ - 1),
      "checkpoint recording lost a settle");
  // Push-back growth leaves up to 2x slack in the resident vectors; return
  // it so memoryBytes() reports (and the budget governs) real content (the
  // chunks themselves are exact-sized copies).
  ck.initialGoodStates_.shrink_to_fit();
  ck.outputs_.shrink_to_fit();
  ck.chunkFirstSettle_.shrink_to_fit();
  ck.chunks_.shrink_to_fit();
  if (ck.spill_ != nullptr) {
    ck.spill_->blockOff.shrink_to_fit();
    // The replay window gets whatever the budget leaves above the fixed
    // resident floor, but always at least the largest chunk: one chunk
    // must be decodable or replay cannot proceed at all.
    const std::size_t fixed = ck.fixedBytes();
    ck.spill_->windowBudget =
        std::max(budgetBytes > fixed ? budgetBytes - fixed : std::size_t{0},
                 ck.spill_->maxBlockBytes);
  }
  return ck;
}

std::uint32_t GoodMachineCheckpoint::settleEndingPattern(
    std::uint64_t p) const {
  FMOSSIM_ASSERT(p < numPatterns_,
                 "settleEndingPattern: pattern index out of range");
  // The (p+1)-th set pattern-end bit (word-skipping popcount scan).
  std::uint64_t need = p + 1;
  for (std::size_t w = 0; w < patternEndBits_.size(); ++w) {
    std::uint64_t word = patternEndBits_[w];
    const auto count = static_cast<std::uint64_t>(std::popcount(word));
    if (count < need) {
      need -= count;
      continue;
    }
    std::uint32_t b = 0;
    for (;; ++b, word >>= 1) {
      if ((word & 1) != 0 && --need == 0) break;
    }
    return static_cast<std::uint32_t>(w * 64 + b);
  }
  FMOSSIM_ASSERT(false, "pattern-end bits inconsistent");
  return 0;
}

std::vector<std::uint64_t> GoodMachineCheckpoint::goodEvalsPerPattern() const {
  // Each good vicinity the engine evaluated added its member count to the
  // pattern's nodeEvals, and the recorder kept exactly those members.
  std::vector<std::uint64_t> evals;
  evals.reserve(static_cast<std::size_t>(numPatterns_));
  std::uint64_t pending = 0;
  CheckpointReader reader(*this);
  for (std::uint32_t s = 1; s < settleCount_; ++s) {
    reader.enterSettle(s);
    for (std::uint32_t ph = 0; ph < reader.phaseCount(); ++ph) {
      pending += reader.members(ph).size();
    }
    if (patternEndsAtSettle(s)) {
      evals.push_back(pending);
      pending = 0;
    }
  }
  return evals;
}

std::vector<State> GoodMachineCheckpoint::goodStateAfterPattern(
    std::uint64_t p) const {
  const std::uint32_t settleEnd = settleEndingPattern(p) + 1;
  std::vector<State> state = initialGoodStates_;
  CheckpointReader reader(*this);
  for (std::uint32_t s = 1; s < settleEnd; ++s) {
    reader.enterSettle(s);
    for (const Change& ch : reader.inputChanges()) {
      state[ch.node().value] = ch.value();
    }
    for (std::uint32_t ph = 0; ph < reader.phaseCount(); ++ph) {
      for (const Change& ch : reader.changes(ph)) {
        state[ch.node().value] = ch.value();
      }
    }
  }
  return state;
}

std::size_t GoodMachineCheckpoint::fixedBytes() const {
  std::size_t n = vecBytes(initialGoodStates_) + vecBytes(finalGoodStates_) +
                  vecBytes(patternEndBits_) + vecBytes(outputs_) +
                  vecBytes(chunkFirstSettle_) + vecBytes(chunks_);
  if (spill_ != nullptr) n += vecBytes(spill_->blockOff);
  return n;
}

std::size_t GoodMachineCheckpoint::memoryBytes() const {
  std::size_t n = fixedBytes();
  if (spill_ == nullptr) {
    for (const auto& chunk : chunks_) n += chunk->bytes();
    return n;
  }
  std::lock_guard<std::mutex> lock(spill_->mu);
  return n + spill_->cachedBytes;
}

std::size_t GoodMachineCheckpoint::maxChunkBytes() const {
  return spill_ == nullptr ? 0 : spill_->maxBlockBytes;
}

std::size_t GoodMachineCheckpoint::windowBudgetBytes() const {
  return spill_ == nullptr ? 0 : spill_->windowBudget;
}

std::shared_ptr<const GoodMachineCheckpoint::SettleBlock>
GoodMachineCheckpoint::loadBlock(std::uint32_t c) const {
  if (spill_ == nullptr) return chunks_[c];
  SpillState& sp = *spill_;
  {
    std::lock_guard<std::mutex> lock(sp.mu);
    if (auto it = sp.cache.find(c); it != sp.cache.end()) {
      sp.lru.splice(sp.lru.begin(), sp.lru, it->second.lruIt);
      return it->second.block;
    }
  }
  // Miss: read and decode OUTSIDE the window lock — pread is thread-safe
  // and this is the expensive part, so concurrently replaying engines must
  // not serialize on each other's file I/O. Two threads missing the same
  // chunk both decode it; the loser's copy is dropped below (wasted work is
  // bounded by one chunk and is far cheaper than holding the lock across
  // disk reads).
  std::string buf;
  sp.readBlock(c, buf);
  auto block = std::make_shared<SettleBlock>();
  decodeBlock(buf.data(), buf.size(), *block);
  const std::size_t bytes = block->bytes();

  std::lock_guard<std::mutex> lock(sp.mu);
  if (auto it = sp.cache.find(c); it != sp.cache.end()) {
    sp.lru.splice(sp.lru.begin(), sp.lru, it->second.lruIt);
    return it->second.block;  // another reader inserted it meanwhile
  }
  sp.lru.push_front(c);
  sp.cache.emplace(c, SpillState::Entry{block, sp.lru.begin(), bytes});
  sp.cachedBytes += bytes;
  // Slide the window: drop least-recently-used chunks past the budget,
  // never a pinned one (a reader still hands out spans into it) and never
  // the chunk just loaded.
  for (auto it = std::prev(sp.lru.end());
       sp.cachedBytes > sp.windowBudget && it != sp.lru.begin();) {
    const auto cur = it--;
    auto entry = sp.cache.find(*cur);
    if (entry->second.block.use_count() > 1) continue;  // pinned by a reader
    sp.cachedBytes -= entry->second.bytes;
    sp.cache.erase(entry);
    sp.lru.erase(cur);
  }
  return block;
}

// --- CheckpointReader --------------------------------------------------------

CheckpointReader::CheckpointReader(const GoodMachineCheckpoint& ck)
    : ck_(&ck) {}

void CheckpointReader::enterSettle(std::uint32_t i) {
  FMOSSIM_ASSERT(i < ck_->numSettles(), "reader settle index out of range");
  // Consecutive settles of one chunk — the sequential replay fast path —
  // reuse the pin. Otherwise find the chunk holding settle i and pin it.
  // Release the previous pin BEFORE loading: spans into it are invalidated
  // by this call anyway, and in spilled mode holding it across the load
  // would make the window need two chunks per reader (old + new),
  // overshooting the budget exactly when it is tightest. With the pin
  // dropped first, the eviction pass inside loadBlock can reclaim the
  // previous chunk, so one chunk per reader is the true floor (as
  // documented on memoryBytes()).
  if (pin_ == nullptr || i < chunkFirst_ ||
      i - chunkFirst_ >= pin_->settles.size()) {
    const std::vector<std::uint32_t>& fs = ck_->chunkFirstSettle_;
    const auto c = static_cast<std::uint32_t>(
        std::upper_bound(fs.begin(), fs.end(), i) - fs.begin() - 1);
    pin_.reset();
    pin_ = ck_->loadBlock(c);
    chunkFirst_ = fs[c];
  }
  settle_ = pin_->settles[i - chunkFirst_];
}

std::uint32_t CheckpointReader::vicinityFirst(std::uint32_t g) const {
  // Just past the last end bit below g, searched a word at a time. A
  // phase's first member follows the previous phase's last, which ends a
  // vicinity, so the search never leaves g's phase.
  const std::uint64_t* bits = pin_->vicinityEnds.data();
  std::uint32_t w = g >> 6;
  std::uint64_t word = bits[w] & ((std::uint64_t{1} << (g & 63)) - 1);
  while (word == 0) {
    if (w == 0) return 0;
    word = bits[--w];
  }
  return w * 64 + 64 - static_cast<std::uint32_t>(std::countl_zero(word));
}

std::uint32_t CheckpointReader::vicinityLast(std::uint32_t g) const {
  // A phase's last member always ends a vicinity, so the search stops
  // inside the phase.
  const std::uint64_t* bits = pin_->vicinityEnds.data();
  std::uint32_t w = g >> 6;
  std::uint64_t word = bits[w] & (~std::uint64_t{0} << (g & 63));
  while (word == 0) word = bits[++w];
  return w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
}

// --- CheckpointRecorder ------------------------------------------------------

CheckpointRecorder::CheckpointRecorder(GoodMachineCheckpoint& into)
    : ck_(into), chunkTarget_(kMaxChunkTarget) {
  if (ck_.spill_ != nullptr) {
    // /16: several chunks fit the window even when the budget is mostly
    // consumed by the fixed floor; clamped so tiny budgets still amortize
    // encode/decode and huge ones keep eviction granular.
    chunkTarget_ = std::clamp<std::size_t>(ck_.budgetBytes_ / 16,
                                           std::size_t{2} << 10,
                                           kMaxChunkTarget);
  }
}

void CheckpointRecorder::inputChange(NodeId n, State v) {
  pendingInputs_.emplace_back(n, v);
}

void CheckpointRecorder::flushChunk() {
  GoodMachineCheckpoint::SettleBlock& b = pending_;
  if (b.settles.empty()) return;
  ck_.chunkFirstSettle_.push_back(
      ck_.settleCount_ - static_cast<std::uint32_t>(b.settles.size()));
  if (ck_.spill_ != nullptr) {
    ck_.spill_->appendBlock(encodeBlock(b));
  } else {
    // Exact-size copies: the resident chunk carries no growth slack, and
    // the pending block keeps its capacity for the next chunk.
    auto chunk = std::make_shared<GoodMachineCheckpoint::SettleBlock>();
    chunk->settles.assign(b.settles.begin(), b.settles.end());
    chunk->phases.assign(b.phases.begin(), b.phases.end());
    chunk->members.assign(b.members.begin(), b.members.end());
    chunk->vicinityEnds.assign(b.vicinityEnds.begin(), b.vicinityEnds.end());
    chunk->changes.assign(b.changes.begin(), b.changes.end());
    chunk->inputChanges.assign(b.inputChanges.begin(), b.inputChanges.end());
    ck_.chunks_.push_back(std::move(chunk));
  }
  b.settles.clear();
  b.phases.clear();
  b.members.clear();
  b.vicinityEnds.clear();
  b.changes.clear();
  b.inputChanges.clear();
}

void CheckpointRecorder::beginSettle() {
  GoodMachineCheckpoint::SettleBlock& b = pending_;
  if (b.contentBytes() >= chunkTarget_) flushChunk();
  const auto inputOff = static_cast<std::uint32_t>(b.inputChanges.size());
  const auto inputCount = static_cast<std::uint32_t>(pendingInputs_.size());
  b.inputChanges.insert(b.inputChanges.end(), pendingInputs_.begin(),
                        pendingInputs_.end());
  pendingInputs_.clear();
  b.settles.push_back({static_cast<std::uint32_t>(b.phases.size()), 0,
                       inputOff, inputCount});
  ++ck_.settleCount_;
}

void CheckpointRecorder::beginPhase() {
  GoodMachineCheckpoint::SettleBlock& b = pending_;
  FMOSSIM_ASSERT(!b.settles.empty(), "phase recorded before any settle");
  b.phases.push_back({static_cast<std::uint32_t>(b.members.size()), 0,
                      static_cast<std::uint32_t>(b.changes.size()), 0});
  ++b.settles.back().phaseCount;
}

void CheckpointRecorder::goodVicinity(std::span<const NodeId> members) {
  FMOSSIM_ASSERT(!members.empty(), "empty good vicinity recorded");
  GoodMachineCheckpoint::SettleBlock& b = pending_;
  b.members.insert(b.members.end(), members.begin(), members.end());
  const std::size_t last = b.members.size() - 1;
  b.vicinityEnds.resize(endWords(b.members.size()), 0);
  b.vicinityEnds[last >> 6] |= std::uint64_t{1} << (last & 63);
  b.phases.back().memberCount += static_cast<std::uint32_t>(members.size());
}

void CheckpointRecorder::goodCommit(NodeId n, State v) {
  GoodMachineCheckpoint::SettleBlock& b = pending_;
  b.changes.emplace_back(n, v);
  ++b.phases.back().changeCount;
}

void CheckpointRecorder::endPattern() {
  FMOSSIM_ASSERT(ck_.settleCount_ > 0, "pattern end recorded before any settle");
  const std::uint32_t i = ck_.settleCount_ - 1;
  auto& bits = ck_.patternEndBits_;
  if ((i >> 6) >= bits.size()) bits.resize((i >> 6) + 1, 0);
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  FMOSSIM_ASSERT((bits[i >> 6] & mask) == 0,
                 "two pattern boundaries on one settle");
  bits[i >> 6] |= mask;
  ++ck_.numPatterns_;
}

void CheckpointRecorder::finish() {
  FMOSSIM_ASSERT(pendingInputs_.empty(),
                 "input changes recorded after the last settle");
  flushChunk();
  pending_ = {};  // release the pending chunk's capacity
  ck_.patternEndBits_.shrink_to_fit();
}

}  // namespace fmossim
