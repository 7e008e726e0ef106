/// \file
/// CheckpointStore — a shared cache of recorded good-machine checkpoints.
///
/// The paper's whole argument (§4) is that the good circuit's work should be
/// done once and shared; GoodMachineCheckpoint realizes that within one
/// sharded run, and this store extends the sharing across *runs*: engines,
/// BenchRunner rows (sharded-2 and sharded-4 of one scenario), and library
/// users simulating many fault subsets against the same sequence all reuse
/// one recording instead of re-deriving it. Entries are keyed on
/// (structural network fingerprint, sequence fingerprint, simulation
/// options), so the cache is correct across Engine instances that each own
/// their *copy* of the same network.
///
/// The store also owns the memory-budget policy: a non-zero
/// Options::budgetBytes makes every checkpoint it records spill its
/// settle-block trace to a temp-file backing store and replay through a
/// sliding in-memory window (see checkpoint.hpp), which is what lets
/// million-pattern sequences run in bounded RAM. Plumbed as
/// EngineOptions::checkpointStore / EngineOptions::checkpointBudgetBytes and
/// the CLI's `--checkpoint-budget`.
///
/// Thread-safe: acquire()/clear() may be called from any thread; a recording
/// in progress blocks other acquires (they would either wait on the same key
/// anyway or are cheap lookups).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "core/checkpoint.hpp"
#include "core/concurrent_sim.hpp"

namespace fmossim {

/// Content fingerprint of a network's simulated structure (FNV-1a over the
/// signal domain, node sizes/input flags and transistor wiring — names are
/// irrelevant to simulation and excluded). Two structurally identical
/// networks — e.g. two Engine-owned copies of one circuit — fingerprint
/// equal, which is what lets CheckpointStore share recordings across
/// engines.
std::uint64_t networkFingerprint(const Network& net);

/// Shared checkpoint cache; see the file comment.
class CheckpointStore {
 public:
  /// Store-wide policy knobs.
  struct Options {
    /// Memory budget per recorded checkpoint in bytes; 0 records in-memory
    /// (unbounded), > 0 spills the trace and bounds
    /// GoodMachineCheckpoint::memoryBytes() (see checkpoint.hpp for the
    /// fixed floor the budget must exceed).
    std::size_t budgetBytes = 0;
    /// Maximum distinct (network, sequence, options) entries kept; the
    /// least recently used entry is dropped beyond this.
    std::size_t maxEntries = 8;
    /// Directory for spill files (empty = the system temp directory).
    std::string spillDir;
  };

  CheckpointStore();  ///< default Options (in-memory, 8 entries)
  explicit CheckpointStore(Options options);

  /// The policy this store was built with.
  const Options& options() const { return options_; }

  /// Returns the cached checkpoint for (net, seq, options.sim), recording
  /// it first on a miss. The returned checkpoint is immutable and safe to
  /// replay from concurrently; it stays valid for the caller even if the
  /// store evicts or clears the entry later. Only the simulation options
  /// that shape the good-machine trace (FsimOptions::sim) key the cache —
  /// detection policy and drop mode do not affect the good machine.
  /// `recordedNow` (optional) is set to whether THIS call performed the
  /// recording — callers attributing recording cost must use it rather than
  /// diffing recordings(), which other threads can bump concurrently.
  std::shared_ptr<const GoodMachineCheckpoint> acquire(
      const Network& net, const TestSequence& seq, const FsimOptions& options,
      bool* recordedNow = nullptr);
  /// acquire() for a caller that already holds `seqFingerprint` ==
  /// GoodMachineCheckpoint::fingerprint(seq), so the lookup does not
  /// rehash the sequence (a recording on a miss is asserted to match it).
  std::shared_ptr<const GoodMachineCheckpoint> acquire(
      const Network& net, const TestSequence& seq, std::uint64_t seqFingerprint,
      const FsimOptions& options, bool* recordedNow = nullptr);

  /// Streaming variant: keyed on the source's fingerprint (the same fold as
  /// a materialized sequence's), recording through the streaming
  /// GoodMachineCheckpoint::record overload on a miss — the source is
  /// consumed, never materialized. Streamed checkpoints omit the
  /// per-pattern good-eval array, so they live under a distinct key and are
  /// never handed to the materialized acquire() above (whose callers rely
  /// on that array), even for bit-identical sequences.
  std::shared_ptr<const GoodMachineCheckpoint> acquireStream(
      const Network& net, PatternSource& source, const FsimOptions& options,
      bool* recordedNow = nullptr);

  /// Drops every cached entry (outstanding shared_ptrs stay valid).
  void clear();

  /// Total checkpoint recordings this store ever performed (cache misses) —
  /// the bench JSON's recording counter and the cache-invalidation tests'
  /// hook.
  std::uint64_t recordings() const;

  /// Total acquire() calls served from the cache (no recording needed) —
  /// together with recordings() this gives the store's hit rate, the
  /// service-mode `stats` verb's headline redundancy metric: hits are
  /// exactly the good-machine simulations that repeat traffic did NOT pay
  /// for.
  std::uint64_t hits() const;

  /// Number of currently cached entries.
  std::size_t entries() const;

  /// Summed resident footprint (memoryBytes()) of all cached checkpoints.
  std::size_t memoryBytes() const;

 private:
  /// (network, sequence, sim options, streamed) — the last component keeps
  /// streamed (no per-pattern evals) and materialized recordings of one
  /// sequence apart.
  using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, bool>;

  struct Entry {
    std::shared_ptr<const GoodMachineCheckpoint> checkpoint;
    std::list<Key>::iterator lruIt;
  };

  template <typename RecordFn>
  std::shared_ptr<const GoodMachineCheckpoint> acquireImpl(
      const Key& key, bool* recordedNow, RecordFn&& recordFn);

  Options options_;
  mutable std::mutex mu_;
  std::list<Key> lru_;  ///< front = most recently used
  std::map<Key, Entry> cache_;
  std::uint64_t recordings_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace fmossim
