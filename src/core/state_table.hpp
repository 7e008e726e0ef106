/// \file
/// Per-node state lists — the central data structure of the concurrent
/// algorithm (paper §4):
///
///   "we maintain a separate state list for each node, containing records of
///    the form `<i, s_i>`, indicating that in circuit i ... this node has state
///    s_i. Such records are maintained only for the good circuit, and for
///    those circuits i such that s_i != s_0."
///
/// The good circuit's state is a flat array; each node additionally carries
/// divergence records packed into *lane blocks*: ternary state fits 2 bits,
/// so one 64-bit word holds the states of 32 consecutive circuits (a lane
/// *group*), with a 32-bit divergence mask saying which lanes actually hold a
/// record. Scanning a node's records — the inner loop of trigger collection —
/// walks a handful of words instead of one entry per diverging circuit, and a
/// per-node group mask answers most faulty-circuit lookups (mayDiverge)
/// without searching the node's blocks at all. Records are read and written
/// one circuit at a time (lookup / reconcile / erase); the engine evaluates
/// each faulty circuit in turn.
///
/// Blocks live in one shared arena (a single `std::vector<LaneBlock>` pool)
/// indexed by per-node {offset, count, capacity} descriptors, sorted by
/// group; inserting a block never allocates unless a node's block list
/// outgrows a power-of-two capacity class (freed lists are recycled through
/// per-class free lists).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "faults/fault.hpp"
#include "switch/network.hpp"

namespace fmossim {

/// Lane arithmetic of the state table's block layout. Circuit IDs start at 1
/// (0 is the good circuit), so circuit c occupies lane (c-1)%32 of group
/// (c-1)/32. States pack as their enum value (S0=0, S1=1, SX=2) in 2-bit
/// fields at bit 2*lane.
namespace lanes {

/// Circuits per lane group (2-bit lanes in one 64-bit word).
inline constexpr std::uint32_t kLaneCount = 32;
/// Lane group of faulty circuit c.
constexpr std::uint32_t groupOf(CircuitId c) { return (c - 1) / kLaneCount; }
/// Lane of faulty circuit c within its group.
constexpr std::uint32_t laneOf(CircuitId c) { return (c - 1) % kLaneCount; }
/// Faulty circuit at (group, lane); the inverse of groupOf/laneOf.
constexpr CircuitId circuitAt(std::uint32_t group, std::uint32_t lane) {
  return group * kLaneCount + lane + 1;
}

/// Extracts the 2-bit state of one lane.
constexpr State laneState(std::uint64_t bits, std::uint32_t lane) {
  return static_cast<State>((bits >> (2 * lane)) & 3u);
}

}  // namespace lanes

/// One group of 32 circuit lanes diverging at a node: circuit
/// circuitAt(group, l) holds state laneState(bits, l) iff divMask bit l is
/// set (lanes outside divMask agree with the good circuit; their bits are
/// stale).
struct LaneBlock {
  std::uint32_t group = 0;    ///< lane group (circuits circuitAt(group, *))
  std::uint32_t divMask = 0;  ///< lanes holding a record
  std::uint64_t bits = 0;     ///< 2-bit state per lane
};

/// Good-circuit state plus per-node divergence lane blocks in a shared
/// arena. Block pointers are invalidated by any mutating call
/// (reconcile/erase); do not hold them across mutations.
class StateTable {
 public:
  /// All-X good state and no records for every node of `net`.
  explicit StateTable(const Network& net)
      : good_(net.numNodes(), State::SX), blocks_(net.numNodes()) {}

  // --- good circuit --------------------------------------------------------

  /// State of node n in the good circuit.
  State good(NodeId n) const { return good_[n.value]; }
  /// Sets the good-circuit state of node n (divergence records unchanged).
  void setGood(NodeId n, State s) { good_[n.value] = s; }

  // --- divergence records --------------------------------------------------

  /// Divergence lookup result: whether circuit c holds a record at the node,
  /// and the recorded state if so.
  struct Lookup {
    bool diverges = false;    ///< circuit c holds a record at the node
    State value = State::SX;  ///< the recorded state (valid iff diverges)
  };

  /// Circuit c's divergence at node n, if any. O(log blocks) + O(1) bit ops.
  Lookup lookup(NodeId n, CircuitId c) const {
    const LaneBlock* blk = findBlock(n, lanes::groupOf(c));
    if (blk == nullptr) return {};
    const std::uint32_t l = lanes::laneOf(c);
    if (((blk->divMask >> l) & 1u) == 0) return {};
    return {true, lanes::laneState(blk->bits, l)};
  }

  /// State of node n in circuit c: its record if present, else the good
  /// state (the concurrent representation invariant).
  State stateOf(NodeId n, CircuitId c) const {
    if (c != kGoodCircuit) {
      const Lookup r = lookup(n, c);
      if (r.diverges) return r.value;
    }
    return good_[n.value];
  }

  /// True if circuit c diverges from the good circuit at node n.
  bool hasRecord(NodeId n, CircuitId c) const { return lookup(n, c).diverges; }

  /// Lane-group miss filter: false when no circuit of `group` diverges at
  /// node n. The per-node group mask aliases groups modulo 64, so true only
  /// means a block of some group g == group (mod 64) is present — enough to
  /// skip the block search on a miss, for any number of groups.
  bool mayDiverge(NodeId n, std::uint32_t group) const {
    return (blocks_[n.value].groupMask >> (group % 64)) & 1u;
  }

  /// Node n's lane-group mask (bit g % 64 per block of group g); exposed for
  /// the engine's index consistency check.
  std::uint64_t groupMask(NodeId n) const { return blocks_[n.value].groupMask; }

  /// Node n's lane block for a circuit group, or nullptr if no circuit of
  /// that group diverges here. Invalidated by mutation.
  const LaneBlock* findBlock(NodeId n, std::uint32_t group) const {
    if (!mayDiverge(n, group)) return nullptr;
    const Block& b = blocks_[n.value];
    const LaneBlock* begin = pool_.data() + b.offset;
    const LaneBlock* it = lowerBound(begin, begin + b.count, group);
    return (it != begin + b.count && it->group == group) ? it : nullptr;
  }

  /// Invokes fn(CircuitId, State) for every divergence record of node n, in
  /// ascending circuit order (the iteration order the concurrent algorithm's
  /// trigger and observation scans rely on).
  template <typename Fn>
  void forEachRecord(NodeId n, Fn&& fn) const {
    const Block& b = blocks_[n.value];
    const LaneBlock* p = pool_.data() + b.offset;
    for (std::uint32_t i = 0; i < b.count; ++i) {
      const LaneBlock& blk = p[i];
      std::uint32_t m = blk.divMask;
      while (m != 0) {
        const std::uint32_t l = std::countr_zero(m);
        m &= m - 1;
        fn(lanes::circuitAt(blk.group, l), lanes::laneState(blk.bits, l));
      }
    }
  }

  /// Number of divergence records at node n (all groups).
  std::uint32_t recordCountAt(NodeId n) const {
    const Block& b = blocks_[n.value];
    const LaneBlock* p = pool_.data() + b.offset;
    std::uint32_t total = 0;
    for (std::uint32_t i = 0; i < b.count; ++i) total += std::popcount(p[i].divMask);
    return total;
  }

  /// Outcome of a reconcile(): whether the circuit now diverges at the node,
  /// and whether the call inserted or erased a record (for callers that
  /// maintain derived indexes over record existence).
  struct Reconciled {
    bool diverges;  ///< a record now exists
    bool inserted;  ///< this call created the record
    bool erased;    ///< this call removed a previously existing record
  };

  /// Establishes circuit c's state at node n: removes the record if the
  /// value re-converges with the good circuit, else inserts/updates it.
  Reconciled reconcile(NodeId n, CircuitId c, State value) {
    FMOSSIM_ASSERT(c != kGoodCircuit, "reconcile is for faulty circuits");
    if (value == good_[n.value]) return {false, false, erase(n, c)};
    const std::uint32_t group = lanes::groupOf(c);
    Block& b = blocks_[n.value];
    LaneBlock* begin = pool_.data() + b.offset;
    LaneBlock* it = lowerBound(begin, begin + b.count, group);
    if (it == begin + b.count || it->group != group) {
      it = insertAt(b, static_cast<std::uint32_t>(it - begin), {group, 0, 0});
    }
    const std::uint32_t lane = lanes::laneOf(c);
    const bool inserted = ((it->divMask >> lane) & 1u) == 0;
    it->bits = (it->bits & ~(std::uint64_t{3} << (2 * lane))) |
               (static_cast<std::uint64_t>(value) << (2 * lane));
    it->divMask |= 1u << lane;
    if (inserted) ++totalRecords_;
    return {true, inserted, false};
  }

  /// Removes circuit c's record at node n if present; returns true if a
  /// record was removed.
  bool erase(NodeId n, CircuitId c) {
    if (!mayDiverge(n, lanes::groupOf(c))) return false;
    Block& b = blocks_[n.value];
    LaneBlock* begin = pool_.data() + b.offset;
    LaneBlock* it = lowerBound(begin, begin + b.count, lanes::groupOf(c));
    if (it == begin + b.count || it->group != lanes::groupOf(c)) return false;
    const std::uint32_t bit = 1u << lanes::laneOf(c);
    if ((it->divMask & bit) == 0) return false;
    it->divMask &= ~bit;
    --totalRecords_;
    if (it->divMask == 0) removeAt(b, static_cast<std::uint32_t>(it - begin));
    return true;
  }

  /// Total number of divergence records (statistics).
  std::uint64_t totalRecords() const { return totalRecords_; }

  /// Arena slots (lane blocks) currently allocated (capacity diagnostics /
  /// tests).
  std::size_t arenaSize() const { return pool_.size(); }

 private:
  /// One node's block list inside the arena. capacity is 0 or a power of
  /// two >= kMinCapacity. groupMask has bit g % 64 set for every listed
  /// block's group g (the mayDiverge filter).
  struct Block {
    std::uint64_t groupMask = 0;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
    std::uint32_t capacity = 0;
  };

  static constexpr std::uint32_t kMinCapacity = 2;

  static const LaneBlock* lowerBound(const LaneBlock* first,
                                     const LaneBlock* last,
                                     std::uint32_t group) {
    return std::lower_bound(
        first, last, group,
        [](const LaneBlock& b, std::uint32_t g) { return b.group < g; });
  }
  static LaneBlock* lowerBound(LaneBlock* first, LaneBlock* last,
                               std::uint32_t group) {
    return const_cast<LaneBlock*>(
        lowerBound(static_cast<const LaneBlock*>(first), last, group));
  }

  /// Inserts `blk` at position pos of node block list b and returns its
  /// (possibly relocated) address.
  LaneBlock* insertAt(Block& b, std::uint32_t pos, LaneBlock blk) {
    if (b.count == b.capacity) growBlock(b);
    LaneBlock* begin = pool_.data() + b.offset;
    for (std::uint32_t i = b.count; i > pos; --i) begin[i] = begin[i - 1];
    begin[pos] = blk;
    ++b.count;
    b.groupMask |= std::uint64_t{1} << (blk.group % 64);
    return begin + pos;
  }

  /// Removes the block at pos; the group mask is rebuilt from the remaining
  /// blocks, since another group may share the removed group's bit.
  void removeAt(Block& b, std::uint32_t pos) {
    LaneBlock* begin = pool_.data() + b.offset;
    for (std::uint32_t i = pos + 1; i < b.count; ++i) begin[i - 1] = begin[i];
    --b.count;
    b.groupMask = 0;
    for (std::uint32_t i = 0; i < b.count; ++i) {
      b.groupMask |= std::uint64_t{1} << (begin[i].group % 64);
    }
  }

  /// Moves the block list to a capacity-doubled arena region (recycling
  /// freed regions of the target class when available).
  void growBlock(Block& b);

  /// Free-list index of a capacity class (2 -> 0, 4 -> 1, ...).
  static unsigned classOf(std::uint32_t capacity) {
    return static_cast<unsigned>(std::countr_zero(capacity)) - 1;
  }

  std::vector<State> good_;
  std::vector<Block> blocks_;
  std::vector<LaneBlock> pool_;
  /// freeLists_[k] holds arena offsets of recycled block lists with capacity
  /// kMinCapacity << k.
  std::vector<std::vector<std::uint32_t>> freeLists_;
  std::uint64_t totalRecords_ = 0;
};

}  // namespace fmossim
