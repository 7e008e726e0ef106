#include "switch/solver.hpp"

#include <algorithm>

namespace fmossim {

SteadyStateSolver::SteadyStateSolver(const SignalDomain& domain)
    : numLevels_(domain.numLevels()), buckets_(numLevels_) {}

void SteadyStateSolver::buildAdjacency(const Vicinity& vic) {
  const auto m = static_cast<std::uint32_t>(vic.size());
  arcOffset_.assign(m + 1, 0);
  for (const auto& e : vic.edges) {
    ++arcOffset_[e.a + 1];
    ++arcOffset_[e.b + 1];
  }
  for (std::uint32_t i = 0; i < m; ++i) arcOffset_[i + 1] += arcOffset_[i];
  arcs_.resize(arcOffset_[m]);
  cursor_.assign(arcOffset_.begin(), arcOffset_.end() - 1);
  for (const auto& e : vic.edges) {
    arcs_[cursor_[e.a]++] = {e.b, e.strength, e.definite};
    arcs_[cursor_[e.b]++] = {e.a, e.strength, e.definite};
  }
}

void SteadyStateSolver::bucketPush(std::uint32_t node, Strength level) {
  buckets_[level].push_back(node);
  if (level > topLevel_) topLevel_ = level;
}

void SteadyStateSolver::relaxDefinite(const Vicinity& vic) {
  const auto m = static_cast<std::uint32_t>(vic.size());
  def_.assign(m, 0);
  topLevel_ = 0;
  for (std::uint32_t i = 0; i < m; ++i) {
    def_[i] = vic.memberSize[i];  // own charge is always a definite source
    bucketPush(i, def_[i]);
  }
  for (const auto& ie : vic.inputEdges) {
    if (!ie.definite) continue;
    if (ie.strength > def_[ie.member]) {
      def_[ie.member] = ie.strength;
      bucketPush(ie.member, ie.strength);
    }
  }
  // Relaxation only ever re-pushes at or below the level being drained, so
  // starting at the seeding watermark skips the empty top buckets.
  for (unsigned level = topLevel_ + 1u; level-- > 0;) {
    auto& bucket = buckets_[level];
    while (!bucket.empty()) {
      const std::uint32_t i = bucket.back();
      bucket.pop_back();
      if (def_[i] != level) continue;  // stale entry
      for (std::uint32_t a = arcOffset_[i]; a < arcOffset_[i + 1]; ++a) {
        const Arc& arc = arcs_[a];
        if (!arc.definite) continue;
        const Strength nd = std::min<Strength>(def_[i], arc.strength);
        if (nd > def_[arc.to]) {
          def_[arc.to] = nd;
          bucketPush(arc.to, nd);
        }
      }
    }
  }
}

void SteadyStateSolver::relaxValue(const Vicinity& vic, bool wantHigh,
                                   std::vector<Strength>& field) {
  const auto m = static_cast<std::uint32_t>(vic.size());
  field.assign(m, 0);
  topLevel_ = 0;
  const auto matches = [wantHigh](State v) {
    return v == State::SX || v == (wantHigh ? State::S1 : State::S0);
  };
  // Charge sources: a member's own charge contributes unless a strictly
  // stronger definite signal overrides it.
  for (std::uint32_t i = 0; i < m; ++i) {
    if (!matches(vic.memberCharge[i])) continue;
    if (vic.memberSize[i] >= def_[i] && vic.memberSize[i] > field[i]) {
      field[i] = vic.memberSize[i];
      bucketPush(i, field[i]);
    }
  }
  // Input sources, attenuated by the connecting transistor; blocked if the
  // member's definite strength exceeds what arrives.
  for (const auto& ie : vic.inputEdges) {
    if (!matches(ie.value)) continue;
    if (ie.strength >= def_[ie.member] && ie.strength > field[ie.member]) {
      field[ie.member] = ie.strength;
      bucketPush(ie.member, ie.strength);
    }
  }
  for (unsigned level = topLevel_ + 1u; level-- > 0;) {
    auto& bucket = buckets_[level];
    while (!bucket.empty()) {
      const std::uint32_t i = bucket.back();
      bucket.pop_back();
      if (field[i] != level) continue;  // stale entry
      for (std::uint32_t a = arcOffset_[i]; a < arcOffset_[i + 1]; ++a) {
        const Arc& arc = arcs_[a];
        const Strength nd = std::min<Strength>(field[i], arc.strength);
        if (nd >= def_[arc.to] && nd > field[arc.to]) {
          field[arc.to] = nd;
          bucketPush(arc.to, nd);
        }
      }
    }
  }
}

void SteadyStateSolver::solveDirect(const Vicinity& vic,
                                    std::vector<State>& out) {
  const auto m = static_cast<std::uint32_t>(vic.size());
  // Fixed-size scratch: heap-backed per-solve assigns would dominate the
  // math on small vicinities. Only edge-free vicinities can exceed it.
  Strength defBuf[kSmallVicinity], hBuf[kSmallVicinity], lBuf[kSmallVicinity];
  Strength* def = defBuf;
  Strength* h = hBuf;
  Strength* l = lBuf;
  if (m > kSmallVicinity) {
    def_.assign(m, 0);
    hstr_.assign(m, 0);
    lstr_.assign(m, 0);
    def = def_.data();
    h = hstr_.data();
    l = lstr_.data();
  }
  // One relaxation step of field f across an edge: the signal arriving at
  // `to` is absorbed there if weaker than the definite strength (for f ==
  // def this is the plain max-min step).
  const auto pass = [def](Strength* f, std::uint32_t from, std::uint32_t to,
                          Strength s) {
    const Strength nd = std::min(f[from], s);
    if (nd < def[to] || nd <= f[to]) return false;
    f[to] = nd;
    return true;
  };
  // Applies `step` to every edge until a whole pass changes nothing, sweeping
  // forward and reversed on alternate passes.
  const auto sweep = [&vic](const auto& step) {
    bool reversed = false;
    for (bool changed = !vic.edges.empty(); changed; reversed = !reversed) {
      changed = false;
      if (reversed) {
        for (auto e = vic.edges.rbegin(); e != vic.edges.rend(); ++e) {
          changed |= step(*e);
        }
      } else {
        for (const auto& e : vic.edges) changed |= step(e);
      }
    }
  };
  // def per member: own size vs strongest definite input, then relaxed over
  // definite edges until no value changes.
  for (std::uint32_t i = 0; i < m; ++i) def[i] = vic.memberSize[i];
  for (const auto& ie : vic.inputEdges) {
    if (ie.definite && ie.strength > def[ie.member]) {
      def[ie.member] = ie.strength;
    }
  }
  sweep([&](const Vicinity::Edge& e) {
    if (!e.definite) return false;
    bool changed = pass(def, e.a, e.b, e.strength);
    changed |= pass(def, e.b, e.a, e.strength);
    return changed;
  });
  // H / L per member: charge source (blocked by a strictly stronger definite
  // signal) and input sources (blocked likewise)...
  for (std::uint32_t i = 0; i < m; ++i) {
    const State ch = vic.memberCharge[i];
    h[i] = (ch != State::S0 && vic.memberSize[i] >= def[i])
               ? vic.memberSize[i]
               : Strength(0);
    l[i] = (ch != State::S1 && vic.memberSize[i] >= def[i])
               ? vic.memberSize[i]
               : Strength(0);
  }
  for (const auto& ie : vic.inputEdges) {
    if (ie.strength < def[ie.member]) continue;
    if (ie.value != State::S0 && ie.strength > h[ie.member]) {
      h[ie.member] = ie.strength;
    }
    if (ie.value != State::S1 && ie.strength > l[ie.member]) {
      l[ie.member] = ie.strength;
    }
  }
  // ...then relaxed over every edge until no value changes.
  sweep([&](const Vicinity::Edge& e) {
    bool changed = pass(h, e.a, e.b, e.strength);
    changed |= pass(h, e.b, e.a, e.strength);
    changed |= pass(l, e.a, e.b, e.strength);
    changed |= pass(l, e.b, e.a, e.strength);
    return changed;
  });
  for (std::uint32_t i = 0; i < m; ++i) {
    const bool hi = h[i] > 0;
    const bool lo = l[i] > 0;
    FMOSSIM_ASSERT(hi || lo, "steady state: node with no possible signal");
    out[i] = hi ? (lo ? State::SX : State::S1) : State::S0;
  }
}

void SteadyStateSolver::solve(const Vicinity& vic, std::vector<State>& out) {
  const auto m = static_cast<std::uint32_t>(vic.size());
  out.resize(m);
  if (m == 0) return;
  ++solves_;
  nodeEvals_ += m;

  if (vic.edges.empty() || m <= kSmallVicinity) {
    solveDirect(vic, out);
    return;
  }

  buildAdjacency(vic);
  relaxDefinite(vic);
  relaxValue(vic, /*wantHigh=*/true, hstr_);
  relaxValue(vic, /*wantHigh=*/false, lstr_);

  for (std::uint32_t i = 0; i < m; ++i) {
    const bool h = hstr_[i] > 0;
    const bool l = lstr_[i] > 0;
    FMOSSIM_ASSERT(h || l, "steady state: node with no possible signal");
    out[i] = h ? (l ? State::SX : State::S1) : State::S0;
  }
}

}  // namespace fmossim
