/// \file
/// Steady-state response solver (paper §4; model from Bryant, IEEE ToC 1984).
///
/// Given a vicinity — a set of storage nodes connected by conducting
/// transistors, bounded by input nodes — the solver computes the new state of
/// every member node. Signals are `<strength, value>` pairs; stronger signals
/// absorb weaker ones, equal-strength conflicting values merge to X.
///
/// Three max-min relaxations per vicinity (see DESIGN.md §3), run as
/// repeated sweeps on small vicinities and as bucket queues on large ones:
///
///  1. def[n]  — strength of the strongest *definite* signal at n, using only
///               transistors in state 1. Every member sources its own charge
///               `<size, state>`; input edges source `<omega, state>`
///               attenuated by the transistor strength.
///  2. H[n]    — strongest possibly-winning signal carrying value in {1,X},
///               using transistors in state 1 or X, where a signal of running
///               strength sigma is blocked at any node m with sigma < def[m]
///               (the definite signal there absorbs it).
///     L[n]    — likewise for values in {0,X}.
///  3. state'  — 1 if only H wins, 0 if only L wins, X if both can.
///
/// This yields ratioed-logic resolution (weak pull-up loses to strong
/// pull-down), charge sharing by node size, precharged-bus reads, and
/// conservative X propagation through uncertain switches.
#pragma once

#include <cstdint>
#include <vector>

#include "switch/vicinity.hpp"

namespace fmossim {

/// Reusable steady-state solver. Not thread-safe (owns scratch buffers);
/// create one per simulation engine.
class SteadyStateSolver {
 public:
  /// A solver for vicinities whose strengths come from `domain`.
  explicit SteadyStateSolver(const SignalDomain& domain);

  /// Computes the steady state of the vicinity. `out` is resized to
  /// vic.size(); out[i] is the new state of vic.members[i].
  void solve(const Vicinity& vic, std::vector<State>& out);

  /// Total member-node evaluations performed (deterministic work counter
  /// used by the benchmarks alongside wall-clock time).
  std::uint64_t nodeEvals() const { return nodeEvals_; }
  /// Total vicinity solves performed.
  std::uint64_t solves() const { return solves_; }

  /// Zeroes nodeEvals() and solves().
  void resetCounters() {
    nodeEvals_ = 0;
    solves_ = 0;
  }

  /// Largest vicinity with edges solved by direct sweeps on stack arrays;
  /// larger ones take the CSR build and the bucket queues, which bound the
  /// worst case on long chains, where repeated sweeps cost O(members x
  /// edges). Both paths reach the same unique fixpoint. Where member
  /// evaluations fall (counted on the benchmark's workloads): on paper
  /// RAM256 replay 95% are in vicinities of at most 4 members and 3% in
  /// 17..64-member ones; on the service's generated 24..48-node tenants 64%
  /// are in 17..64-member vicinities, which is why the bound is 64.
  static constexpr std::uint32_t kSmallVicinity = 64;

 private:
  // Directed arc of the dense vicinity graph.
  struct Arc {
    std::uint32_t to;
    Strength strength;
    bool definite;
  };

  void buildAdjacency(const Vicinity& vic);
  void relaxDefinite(const Vicinity& vic);
  // Relaxes H (wantHigh=true: sources with value 1 or X) or L into `field`.
  void relaxValue(const Vicinity& vic, bool wantHigh, std::vector<Strength>& field);

  // Direct path for edge-free vicinities of any size and for vicinities of
  // at most kSmallVicinity members: the same three relaxations, run as
  // repeated sweeps over vic.edges on stack arrays until no value changes,
  // alternating forward and reversed edge order. A chain or tree whose
  // edges are listed outward from its driven end (or inward) then settles
  // in about three passes, whichever way it is listed. A max-min fixpoint is
  // unique, so every result equals the bucketed path's.
  void solveDirect(const Vicinity& vic, std::vector<State>& out);

  // Bucket-queue helpers over strength levels.
  void bucketPush(std::uint32_t node, Strength level);

  unsigned numLevels_;

  // CSR adjacency, rebuilt per solve.
  std::vector<std::uint32_t> arcOffset_;
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> cursor_;  // buildAdjacency scratch (hoisted)

  std::vector<Strength> def_;
  std::vector<Strength> hstr_;
  std::vector<Strength> lstr_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  Strength topLevel_ = 0;  // highest level seeded in the current relaxation

  std::uint64_t nodeEvals_ = 0;
  std::uint64_t solves_ = 0;
};

}  // namespace fmossim
