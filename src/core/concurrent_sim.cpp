#include "core/concurrent_sim.hpp"

#include <algorithm>

#include "core/checkpoint.hpp"
#include "core/row_sink.hpp"
#include "patterns/pattern_source.hpp"

namespace fmossim {

/// CircuitView over the good circuit's flat state.
struct GoodCircuitView {
  const ConcurrentFaultSimulator* s;
  State nodeState(NodeId n) const { return s->table_.good(n); }
  State conduction(TransId t) const { return s->cond0_[t.value]; }
  bool isInputNode(NodeId n) const { return s->net_.isInput(n); }
};

/// CircuitView over one faulty circuit under the pre-phase lens: its fault
/// site first, then its divergence records, then the good circuit's
/// pre-phase state (pre-phase good values for nodes the good circuit changed
/// this phase, the live good state otherwise). Conduction is derived from
/// gate states through the same lens, except where overridden by the
/// circuit's fault. The one implementation of a faulty circuit's state:
/// stateIn/conductionIn go through it too.
struct FaultyCircuitView {
  const ConcurrentFaultSimulator* s;
  CircuitId c;
  std::uint32_t group;  ///< c's lane group (the state table's miss filter)
  ConcurrentFaultSimulator::FaultSite site;

  FaultyCircuitView(const ConcurrentFaultSimulator* sim, CircuitId circuit)
      : s(sim), c(circuit), group(lanes::groupOf(circuit)),
        site(sim->site_[circuit]) {}

  State nodeState(NodeId n) const {
    if (n.value == site.node) return site.value;
    if (!s->table_.mayDiverge(n, group)) return s->preGood(n);
    return s->recordedStateIn(n, c);
  }
  State conduction(TransId t) const {
    // No override anywhere and an undivergent gate: one stamped array read.
    if (s->chanDivergent_[t.value] == 0) return s->preGoodConduction(t);
    if (t.value == site.trans) return site.value;
    const std::uint32_t g = s->condGate_[t.value];
    if (g == site.node) {
      return conductionState(s->net_.transistor(t).type, site.value);
    }
    // A fault device (gate slot numNodes), or a gate where no circuit of
    // c's lane group diverges, conducts as in the pre-phase good circuit.
    if (g == s->net_.numNodes() || !s->table_.mayDiverge(NodeId(g), group)) {
      return s->preGoodConduction(t);
    }
    return conductionState(s->net_.transistor(t).type,
                           s->recordedStateIn(NodeId(g), c));
  }
  bool isInputNode(NodeId n) const {
    return s->isInput_[n.value] != 0 || n.value == site.node;
  }
};

State ConcurrentFaultSimulator::recordedStateIn(NodeId n, CircuitId c) const {
  const StateTable::Lookup r = table_.lookup(n, c);
  return r.diverges ? r.value : preGood(n);
}

State ConcurrentFaultSimulator::stateIn(NodeId n, CircuitId c) const {
  return FaultyCircuitView(this, c).nodeState(n);
}

State ConcurrentFaultSimulator::conductionIn(TransId t, CircuitId c) const {
  return FaultyCircuitView(this, c).conduction(t);
}

ConcurrentFaultSimulator::ConcurrentFaultSimulator(
    const Network& net, const FaultList& faults, FsimOptions options,
    CheckpointRecorder* record, const GoodMachineCheckpoint* replay)
    : ConcurrentFaultSimulator(net, faults, faults.size(), options, record,
                               replay, /*transientMode=*/false,
                               /*resumeAfterPattern=*/0) {}

ConcurrentFaultSimulator::ConcurrentFaultSimulator(
    const Network& net, std::uint32_t numTransientMachines, FsimOptions options,
    const GoodMachineCheckpoint* replay, std::uint64_t resumeAfterPattern)
    : ConcurrentFaultSimulator(net, FaultList{}, numTransientMachines, options,
                               /*record=*/nullptr, replay,
                               /*transientMode=*/true, resumeAfterPattern) {}

ConcurrentFaultSimulator::ConcurrentFaultSimulator(
    const Network& net, const FaultList& faults, std::uint32_t numMachines,
    FsimOptions options, CheckpointRecorder* record,
    const GoodMachineCheckpoint* replay, bool transientMode,
    std::uint64_t resumeAfterPattern)
    : net_(net),
      faults_(faults),
      options_(options),
      numMachines_(numMachines),
      transientMode_(transientMode),
      resumeAfterPattern_(resumeAfterPattern),
      transient_(transientMode ? numMachines : 0),
      record_(record),
      replay_(replay),
      table_(net),
      cond0_(net.numTransistors(), State::SX),
      condOldValue_(net.numTransistors(), State::SX),
      condOldStamp_(net.numTransistors(), 0),
      nodeStuck_(net.numNodes()),
      transOverride_(net.numTransistors()),
      site_(numMachines + 1),
      alive_(numMachines + 1, 0),
      detectedAt_(numMachines, -1),
      touched_(numMachines + 1),
      touchedCap_(numMachines + 1, 16),
      watchCount_(net.numNodes(), 0),
      divCount_(net.numNodes() + 1, 0),
      condGate_(net.numTransistors(), net.numNodes()),
      isInput_(net.numNodes(), 0),
      chanDivergent_(net.numTransistors(), 0),
      divChanOff_(net.numNodes() + 1, 0),
      divChanSize_(net.numNodes(), 0),
      divChanSlot_(net.numTransistors(), {kNotListed, kNotListed}),
      stuckNbrCount_(net.numNodes(), 0),
      goodSeedStamp_(net.numNodes(), 0),
      faultySeeds_(numMachines + 1),
      circuitStamp_(numMachines + 1, 0),
      curFaultySeeds_(numMachines + 1),
      goodOldValue_(net.numNodes(), State::SX),
      goodOldStamp_(net.numNodes(), 0),
      phaseCircuitStamp_(numMachines + 1, 0),
      vicBuilder_(net),
      solver_(net.domain()),
      triggerStamp_(numMachines + 1, 0) {
  FMOSSIM_ASSERT(record_ == nullptr || replay_ == nullptr,
                 "an engine cannot record and replay a checkpoint at once");
  FMOSSIM_ASSERT(record_ == nullptr || faults_.empty(),
                 "checkpoint recording requires a fault-free engine");
  FMOSSIM_ASSERT(replay_ == nullptr || replay_->numNodes() == net_.numNodes(),
                 "checkpoint was recorded for a different network");
  FMOSSIM_ASSERT(transientMode_ || numMachines_ == faults_.size(),
                 "machine count must match the fault list");
  if (replay_ != nullptr) {
    replayReader_ = std::make_unique<CheckpointReader>(*replay_);
  }
  if (transientMode_ && replay_ != nullptr) {
    // Tail resume: materialize the good machine right after the injection
    // boundary — the entire prefix is skipped, which is sound because a
    // transient machine cannot diverge before its injection.
    FMOSSIM_ASSERT(resumeAfterPattern_ < replay_->numPatterns(),
                   "transient resume instant past the recorded sequence");
    const std::vector<State> good =
        replay_->goodStateAfterPattern(resumeAfterPattern_);
    for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
      table_.setGood(NodeId(n), good[n]);
    }
  }
  for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
    const Network::Node& node = net_.node(NodeId(n));
    isInput_[n] = node.isInput ? 1 : 0;
    divChanOff_[n + 1] =
        divChanOff_[n] + static_cast<std::uint32_t>(node.channelOf.size());
  }
  divChan_.resize(divChanOff_.back());
  for (std::uint32_t t = 0; t < net_.numTransistors(); ++t) {
    const auto& tr = net_.transistor(TransId(t));
    if (!tr.isFaultDevice()) condGate_[t] = tr.gate.value;
    cond0_[t] = tr.isFaultDevice()
                    ? *tr.goodConduction
                    : conductionState(tr.type, table_.good(tr.gate));
  }
  if (transientMode_ && replay_ != nullptr) {
    // The materialized state is already settled at a pattern boundary; the
    // replay cursor resumes at the following settle.
    replaySettle_ = replay_->settleEndingPattern(resumeAfterPattern_) + 1;
    inject();
    return;
  }
  // Initial good-circuit evaluation of the whole (all-X) network. In replay
  // mode the checkpoint's settle block 0 stands in for it.
  if (replay_ == nullptr) {
    for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
      scheduleGood(NodeId(n));
    }
  }
  inject();
  settleAll();
}

ConcurrentFaultSimulator::~ConcurrentFaultSimulator() = default;

void ConcurrentFaultSimulator::inject() {
  if (transientMode_) {
    // Transient machines carry no divergence until their injection instant:
    // they are alive from the start but schedule nothing.
    for (CircuitId c = 1; c <= numMachines_; ++c) alive_[c] = 1;
    aliveCount_ = numMachines_;
    maxAliveObserved_ = aliveCount_;
    return;
  }
  for (std::uint32_t i = 0; i < faults_.size(); ++i) {
    const CircuitId c = i + 1;
    const Fault& f = faults_[i];
    alive_[c] = 1;
    ++aliveCount_;
    switch (f.kind) {
      case FaultKind::NodeStuck: {
        addOverlay(c, {f.node.value, kNoSite, f.value});
        scheduleFaulty(c, f.node);
        for (const TransId t : net_.node(f.node).gateOf) {
          const auto& tr = net_.transistor(t);
          scheduleFaulty(c, tr.source);
          scheduleFaulty(c, tr.drain);
        }
        break;
      }
      case FaultKind::TransistorStuck:
      case FaultKind::FaultDevice: {
        addOverlay(c, {kNoSite, f.transistor.value, f.value});
        const auto& tr = net_.transistor(f.transistor);
        scheduleFaulty(c, tr.source);
        scheduleFaulty(c, tr.drain);
        break;
      }
    }
  }
  maxAliveObserved_ = aliveCount_;
}

void ConcurrentFaultSimulator::scheduleGood(NodeId n) {
  if (replay_ != nullptr) return;  // the checkpoint drives all good activity
  if (net_.isInput(n)) return;
  if (goodSeedStamp_[n.value] == seedGen_) return;
  goodSeedStamp_[n.value] = seedGen_;
  goodSeeds_.push_back(n);
}

void ConcurrentFaultSimulator::scheduleFaulty(CircuitId c, NodeId n) {
  if (!alive_[c]) return;
  // A plain input node cannot change in circuit c; stuck nodes (input-like
  // per circuit) are allowed as seeds — the vicinity builder expands them.
  if (isInput_[n.value] != 0 && !isStuckNode(n, c)) return;
  faultySeeds_[c].push_back(n);
  if (circuitStamp_[c] != seedGen_) {
    circuitStamp_[c] = seedGen_;
    activeCircuits_.push_back(c);
  }
}

SettleResult ConcurrentFaultSimulator::applySetting(
    std::span<const std::pair<NodeId, State>> assignments) {
  for (const auto& [n, s] : assignments) {
    if (!net_.isInput(n)) {
      throw Error("applySetting: '" + net_.node(n).name + "' is not an input");
    }
    const State old = table_.good(n);
    if (old == s) continue;
    if (record_ != nullptr) record_->inputChange(n, s);
    table_.setGood(n, s);
    scheduleSettingSeeds(n, old);
  }
  return settleAll();
}

void ConcurrentFaultSimulator::scheduleSettingSeeds(NodeId n, State /*oldGood*/) {
  // Good circuit: gated transistors toggle...
  for (const TransId t : net_.node(n).gateOf) {
    const auto& tr = net_.transistor(t);
    if (tr.isFaultDevice()) continue;
    const State nc = conductionState(tr.type, table_.good(n));
    if (nc != cond0_[t.value]) {
      cond0_[t.value] = nc;
      scheduleGood(tr.source);
      scheduleGood(tr.drain);
    }
  }
  // ...and conducting channel neighbours are perturbed.
  for (const TransId t : net_.node(n).channelOf) {
    const auto& tr = net_.transistor(t);
    const NodeId other = tr.otherEnd(n);
    if (cond0_[t.value] != State::S0) {
      scheduleGood(other);
      continue;
    }
    // The transistor is off in the good circuit, so the good phase will not
    // evaluate a vicinity across it — but it may conduct in a faulty
    // circuit (override, or divergent gate state). Schedule those circuits
    // directly, otherwise the input change would never reach them.
    for (const Override& o : transOverride_[t.value]) {
      if (o.value != State::S0) scheduleFaulty(o.circuit, other);
    }
    if (divCount_[condGate_[t.value]] != 0) {
      const NodeId g = tr.gate;
      table_.forEachRecord(g, [&](CircuitId rc, State rv) {
        if (conductionState(tr.type, rv) != State::S0) {
          scheduleFaulty(rc, other);
        }
      });
      for (const Override& o : nodeStuck_[g.value]) {
        if (conductionState(tr.type, o.value) != State::S0) {
          scheduleFaulty(o.circuit, other);
        }
      }
    }
  }
}

SettleResult ConcurrentFaultSimulator::settleAll() {
  if (record_ != nullptr) record_->beginSettle();
  if (replay_ != nullptr) {
    // A trace-driven pattern step enters the settle itself (it needs the
    // reader positioned before settleAll, to apply the recorded input
    // changes), and an in-place settle has no recorded settle of its own;
    // consume that entry instead of advancing past it.
    if (!replayEntered_) replayBeginSettle();
    replayEntered_ = false;
  }
  SettleResult res;
  bool coerce = false;
  const std::uint32_t hardLimit =
      options_.sim.settleLimit + 8 * net_.numNodes() + 4096;
  while (!goodSeeds_.empty() || !activeCircuits_.empty() ||
         replayPhasesRemain()) {
    FMOSSIM_ASSERT(res.phases < hardLimit,
                   "concurrent settle failed to terminate under X-coercion");
    if (res.phases >= options_.sim.settleLimit && !coerce) {
      coerce = true;
      res.oscillated = true;
    }
    runPhase(coerce);
    ++res.phases;
    ++phases_;
  }
  ++phaseEpoch_;  // invalidate pre-phase snapshots for external queries
  return res;
}

void ConcurrentFaultSimulator::runPhase(bool coerce) {
  ++phaseEpoch_;
  curGoodSeeds_.swap(goodSeeds_);
  goodSeeds_.clear();
  curCircuits_.swap(activeCircuits_);
  activeCircuits_.clear();
  for (const CircuitId c : curCircuits_) {
    curFaultySeeds_[c].swap(faultySeeds_[c]);
    faultySeeds_[c].clear();
    phaseCircuitStamp_[c] = phaseEpoch_;
  }
  ++seedGen_;  // scheduling from here on targets the next phase

  if (record_ != nullptr) record_->beginPhase();
  if (replay_ != nullptr) {
    replayGoodPhase();
  } else {
    processGoodPhase(coerce);
  }

  // The paper simulates "the activities for each faulty circuit in turn";
  // circuits are independent within a phase, so queue order is fine.
  for (const CircuitId c : curCircuits_) {
    if (alive_[c]) processFaultyCircuit(c, coerce);
    curFaultySeeds_[c].clear();
  }
  curCircuits_.clear();
  curGoodSeeds_.clear();
}

void ConcurrentFaultSimulator::processGoodPhase(bool coerce) {
  goodChanges_.clear();
  vicBuilder_.newGeneration();
  const GoodCircuitView view{this};
  for (const NodeId seed : curGoodSeeds_) {
    if (!vicBuilder_.grow(view, seed, vic_)) continue;
    solver_.solve(vic_, newStates_);
    for (std::size_t i = 0; i < vic_.size(); ++i) {
      if (newStates_[i] != vic_.memberCharge[i]) {
        goodChanges_.emplace_back(vic_.members[i], newStates_[i]);
      }
    }
    // Triggering is stimulus-based: even an unchanged vicinity may respond
    // differently in a diverging faulty circuit.
    collectTriggers(vic_.members);
    if (record_ != nullptr) record_->goodVicinity(vic_.members);
  }
  // Commit (two-buffered: all vicinities were solved against pre-phase state).
  for (auto [n, v] : goodChanges_) {
    if (coerce) v = State::SX;
    const State old = table_.good(n);
    if (old == v) continue;
    if (record_ != nullptr) record_->goodCommit(n, v);
    if (goodOldStamp_[n.value] != phaseEpoch_) {
      goodOldStamp_[n.value] = phaseEpoch_;
      goodOldValue_[n.value] = old;
    }
    table_.setGood(n, v);
    for (const TransId t : net_.node(n).gateOf) {
      const auto& tr = net_.transistor(t);
      if (tr.isFaultDevice()) continue;
      const State nc = conductionState(tr.type, v);
      if (nc != cond0_[t.value]) {
        commitGoodConduction(t, nc);
        scheduleGood(tr.source);
        scheduleGood(tr.drain);
      }
    }
  }
}

void ConcurrentFaultSimulator::collectTriggers(
    std::span<const NodeId> members) {
  if (aliveCount_ == 0) return;  // nothing left to trigger
  ++triggerGen_;
  triggerScratch_.clear();
  const auto mark = [this](CircuitId c) {
    if (!alive_[c]) return;
    if (triggerStamp_[c] == triggerGen_) return;
    triggerStamp_[c] = triggerGen_;
    triggerScratch_.push_back(c);
  };
  for (const NodeId n : members) {
    // No divergence source lands on this member: nothing below can mark.
    if (watchCount_[n.value] == 0) continue;
    if (divCount_[n.value] != 0) {
      table_.forEachRecord(n, [&](CircuitId rc, State) { mark(rc); });
      for (const Override& o : nodeStuck_[n.value]) mark(o.circuit);
    }
    // Only channels that carry an override or whose gate diverges can mark;
    // the rest of channelOf (most of a bit line's transistors) is skipped.
    const TransId* chan = divChan_.data() + divChanOff_[n.value];
    for (std::uint32_t i = 0; i < divChanSize_[n.value]; ++i) {
      const TransId t = chan[i];
      for (const Override& o : transOverride_[t.value]) mark(o.circuit);
      const std::uint32_t g = condGate_[t.value];
      if (divCount_[g] != 0) {
        table_.forEachRecord(NodeId(g), [&](CircuitId rc, State) { mark(rc); });
        for (const Override& o : nodeStuck_[g]) mark(o.circuit);
      }
    }
    // A stuck *input* neighbour diverges in its circuit without ever
    // carrying a state record; it influences this vicinity directly.
    if (stuckNbrCount_[n.value] != 0) {
      for (const TransId t : net_.node(n).channelOf) {
        const NodeId other = net_.transistor(t).otherEnd(n);
        if (isInput_[other.value] != 0) {
          for (const Override& o : nodeStuck_[other.value]) mark(o.circuit);
        }
      }
    }
  }
  if (triggerScratch_.empty()) return;
  for (const CircuitId c : triggerScratch_) {
    if (options_.debugLoseTriggerEvery != 0 &&
        ++debugTriggerCount_ % options_.debugLoseTriggerEvery == 0) {
      continue;  // deliberately lost trigger (oracle self-test; see FsimOptions)
    }
    if (phaseCircuitStamp_[c] != phaseEpoch_) {
      phaseCircuitStamp_[c] = phaseEpoch_;
      curCircuits_.push_back(c);
    }
    auto& seeds = curFaultySeeds_[c];
    seeds.insert(seeds.end(), members.begin(), members.end());
    triggeredEvents_ += members.size();
  }
}

// --- checkpoint replay (see checkpoint.hpp) --------------------------------

bool ConcurrentFaultSimulator::replayPhasesRemain() const {
  if (replay_ == nullptr) return false;
  return replayPhase_ < replayReader_->phaseCount();
}

void ConcurrentFaultSimulator::replayBeginSettle() {
  FMOSSIM_ASSERT(replaySettle_ < replay_->numSettles(),
                 "replay ran more settles than the checkpoint recorded");
  // The cursor pins the settle's trace block — for a spilled checkpoint
  // this is the point where the sliding window advances.
  replayReader_->enterSettle(replaySettle_);
  ++replaySettle_;
  replayPhase_ = 0;
}

void ConcurrentFaultSimulator::replayGoodPhase() {
  if (replayPhase_ >= replayReader_->phaseCount()) {
    return;  // good machine already quiet
  }
  const std::uint32_t ph = replayPhase_++;
  // Trigger stimuli first, in recorded evaluation order: faulty-circuit seed
  // order (and therefore vicinity growth order) must match a
  // self-simulating engine's exactly. A vicinity with no watched member
  // cannot mark a circuit, so only the vicinities around watched members
  // are scanned — the same marks, in the same order.
  if (aliveCount_ != 0) {
    replayReader_->forEachHotVicinity(
        ph, [this](NodeId n) { return watchCount_[n.value] != 0; },
        [this](std::span<const NodeId> vic) { collectTriggers(vic); });
  }
  // Then the commits. Recorded changes are post-coercion and always differ
  // from the node's pre-phase value, so they apply verbatim; conduction
  // states are pure functions of the gate state and are recomputed rather
  // than stored. No good events are scheduled — the next recorded phase
  // already embodies them.
  for (const auto& ch : replayReader_->changes(ph)) {
    const NodeId n = ch.node();
    const State v = ch.value();
    if (goodOldStamp_[n.value] != phaseEpoch_) {
      goodOldStamp_[n.value] = phaseEpoch_;
      goodOldValue_[n.value] = table_.good(n);
    }
    table_.setGood(n, v);
    for (const TransId t : net_.node(n).gateOf) {
      const auto& tr = net_.transistor(t);
      if (tr.isFaultDevice()) continue;
      commitGoodConduction(t, conductionState(tr.type, v));
    }
  }
}


void ConcurrentFaultSimulator::processFaultyCircuit(CircuitId c, bool coerce) {
  const FaultyCircuitView view(this, c);
  vicBuilder_.newGeneration();
  faultyResults_.clear();
  faultyChanges_.clear();
  for (const NodeId seed : curFaultySeeds_[c]) {
    if (!vicBuilder_.grow(view, seed, vic_)) continue;
    solver_.solve(vic_, newStates_);
    for (std::size_t i = 0; i < vic_.size(); ++i) {
      const NodeId n = vic_.members[i];
      const State pre = vic_.memberCharge[i];
      State next = newStates_[i];
      if (coerce && next != pre) next = State::SX;
      faultyResults_.emplace_back(n, next);
      if (next != pre) faultyChanges_.push_back({n, pre, next});
    }
  }
  // Commit this circuit's records (vs. the good circuit's *current* state).
  for (const auto& [n, v] : faultyResults_) {
    const StateTable::Reconciled rec = table_.reconcile(n, c, v);
    if (rec.inserted) {
      touchedInsert(c, n);
      addRecordWatch(n, +1);
    } else if (rec.erased) {
      addRecordWatch(n, -1);
    }
  }
  // Gate toggles within circuit c schedule next-phase events for c.
  for (const FaultyChange& ch : faultyChanges_) {
    for (const TransId t : net_.node(ch.node).gateOf) {
      const auto& tr = net_.transistor(t);
      if (tr.isFaultDevice()) continue;
      if (hasOverride(t, c)) continue;
      if (conductionState(tr.type, ch.oldValue) !=
          conductionState(tr.type, ch.newValue)) {
        scheduleFaulty(c, tr.source);
        scheduleFaulty(c, tr.drain);
      }
    }
  }
}

std::uint32_t ConcurrentFaultSimulator::observe(
    const std::vector<NodeId>& outputs, std::uint32_t patternIndex) {
  dropQueue_.clear();
  std::uint32_t newly = 0;
  for (const NodeId out : outputs) {
    const State g = table_.good(out);
    const auto consider = [&](CircuitId c, State s) {
      if (!alive_[c]) return;
      if (detectedAt_[c - 1] >= 0) return;  // already detected (no-drop mode)
      if (s == g) return;
      if (options_.policy == DetectionPolicy::DefiniteOnly &&
          (!isDefinite(g) || !isDefinite(s))) {
        ++potentialDetections_;
        return;
      }
      detectedAt_[c - 1] = static_cast<std::int32_t>(patternIndex);
      ++newly;
      dropQueue_.push_back(c);
    };
    for (const Override& o : nodeStuck_[out.value]) consider(o.circuit, o.value);
    table_.forEachRecord(out, [&](CircuitId rc, State rv) { consider(rc, rv); });
  }
  if (options_.dropDetected) {
    for (const CircuitId c : dropQueue_) dropCircuit(c);
  }
  return newly;
}

void ConcurrentFaultSimulator::touchedInsert(CircuitId c, NodeId n) {
  touched_[c].push_back(n);
  if (touched_[c].size() >= touchedCap_[c]) compactTouched(c);
}

void ConcurrentFaultSimulator::compactTouched(CircuitId c) {
  auto& v = touched_[c];
  std::sort(v.begin(), v.end(),
            [](NodeId a, NodeId b) { return a.value < b.value; });
  v.erase(std::unique(v.begin(), v.end()), v.end());
  std::erase_if(v, [&](NodeId n) { return !table_.hasRecord(n, c); });
  touchedCap_[c] =
      std::max<std::uint32_t>(16, 2 * static_cast<std::uint32_t>(v.size()));
}

void ConcurrentFaultSimulator::dropCircuit(CircuitId c) {
  if (!alive_[c]) return;
  alive_[c] = 0;
  --aliveCount_;
  for (const NodeId n : touched_[c]) {
    // touched_ may hold duplicates (re-divergence after convergence); only a
    // real erase decrements the watch counts.
    if (table_.erase(n, c)) addRecordWatch(n, -1);
  }
  touched_[c].clear();
  touched_[c].shrink_to_fit();
  faultySeeds_[c].clear();
  removeOverlay(c);
}

void ConcurrentFaultSimulator::addOverlay(CircuitId c, FaultSite site) {
  FMOSSIM_ASSERT(site_[c] == FaultSite{},
                 "a faulty circuit carries at most one fault overlay");
  site_[c] = site;
  const Override o{c, site.value};
  const auto insertSorted = [&o](std::vector<Override>& v) {
    v.insert(std::upper_bound(v.begin(), v.end(), o,
                              [](const Override& a, const Override& b) {
                                return a.circuit < b.circuit;
                              }),
             o);
  };
  if (site.node != kNoSite) {
    insertSorted(nodeStuck_[site.node]);
    addStuckWatch(NodeId(site.node), +1);
  } else {
    insertSorted(transOverride_[site.trans]);
    addTransWatch(TransId(site.trans), +1);
  }
}

void ConcurrentFaultSimulator::removeOverlay(CircuitId c) {
  // A dropped circuit's overlay would otherwise be scanned by every future
  // trigger collection; removing it is what makes the paper's falling
  // per-pattern cost curve steep. The site says exactly where it lives.
  const FaultSite site = site_[c];
  site_[c] = {};
  const auto eraseFrom = [c](std::vector<Override>& v) {
    std::erase_if(v, [c](const Override& o) { return o.circuit == c; });
  };
  if (site.node != kNoSite) {
    eraseFrom(nodeStuck_[site.node]);
    addStuckWatch(NodeId(site.node), -1);
  } else if (site.trans != kNoSite) {
    eraseFrom(transOverride_[site.trans]);
    addTransWatch(TransId(site.trans), -1);
  }
}

// The three watch helpers mirror collectTriggers' member scan: each counts,
// at every node the scan could mark from, one unit per divergence source,
// and keeps the flat guards in step with the overlay and record tables.

void ConcurrentFaultSimulator::addRecordWatch(NodeId m, std::int32_t delta) {
  const std::uint32_t before = divCount_[m.value];
  divCount_[m.value] += static_cast<std::uint32_t>(delta);
  watchCount_[m.value] += static_cast<std::uint32_t>(delta);  // member scan
  const bool crossed = (before == 0) != (divCount_[m.value] == 0);
  for (const TransId t : net_.node(m).gateOf) {               // gate scan
    const auto& tr = net_.transistor(t);
    if (tr.isFaultDevice()) continue;
    watchCount_[tr.source.value] += static_cast<std::uint32_t>(delta);
    watchCount_[tr.drain.value] += static_cast<std::uint32_t>(delta);
    if (crossed) refreshDivergentChannel(t);
  }
}

void ConcurrentFaultSimulator::addStuckWatch(NodeId n, std::int32_t delta) {
  // A stuck overlay influences the same member/gate scans as a record...
  addRecordWatch(n, delta);
  if (isInput_[n.value] != 0) {  // ...plus the stuck-input-neighbour scan
    for (const TransId t : net_.node(n).channelOf) {
      const NodeId other = net_.transistor(t).otherEnd(n);
      watchCount_[other.value] += static_cast<std::uint32_t>(delta);
      stuckNbrCount_[other.value] += static_cast<std::uint32_t>(delta);
    }
  }
}

void ConcurrentFaultSimulator::addTransWatch(TransId t, std::int32_t delta) {
  const auto& tr = net_.transistor(t);  // channel-override scan
  watchCount_[tr.source.value] += static_cast<std::uint32_t>(delta);
  watchCount_[tr.drain.value] += static_cast<std::uint32_t>(delta);
  refreshDivergentChannel(t);
}

void ConcurrentFaultSimulator::refreshDivergentChannel(TransId t) {
  const bool divergent =
      !transOverride_[t.value].empty() || divCount_[condGate_[t.value]] != 0;
  if (divergent == (chanDivergent_[t.value] != 0)) return;
  chanDivergent_[t.value] = divergent ? 1 : 0;
  std::array<std::uint32_t, 2>& slots = divChanSlot_[t.value];
  const auto& tr = net_.transistor(t);
  const NodeId ends[2] = {tr.source, tr.drain};
  for (std::size_t e = 0; e < 2; ++e) {
    const std::uint32_t n = ends[e].value;
    TransId* chan = divChan_.data() + divChanOff_[n];
    if (divergent) {
      slots[e] = divChanSize_[n]++;
      chan[slots[e]] = t;
      continue;
    }
    // Swap-remove: the list's last transistor takes t's slot.
    const TransId moved = chan[--divChanSize_[n]];
    chan[slots[e]] = moved;
    divChanSlot_[moved.value][net_.transistor(moved).source.value == n ? 0 : 1] =
        slots[e];
    slots[e] = kNotListed;
  }
}

void ConcurrentFaultSimulator::checkIndexes() const {
  const std::uint32_t numNodes = net_.numNodes();
  const std::uint32_t numTrans = net_.numTransistors();
  // Recompute every count from the overlay tables and the state table.
  std::vector<std::uint32_t> div(numNodes + 1, 0), watch(numNodes, 0),
      stuckNbr(numNodes, 0);
  for (std::uint32_t n = 0; n < numNodes; ++n) {
    div[n] = table_.recordCountAt(NodeId(n)) +
             static_cast<std::uint32_t>(nodeStuck_[n].size());
    FMOSSIM_ASSERT(isInput_[n] == (net_.isInput(NodeId(n)) ? 1 : 0),
                   "flat input flag out of step with the network");
  }
  for (std::uint32_t n = 0; n <= numNodes; ++n) {
    FMOSSIM_ASSERT(divCount_[n] == div[n],
                   "divergence count out of step with records and overlays");
  }
  for (std::uint32_t n = 0; n < numNodes; ++n) {
    const Network::Node& node = net_.node(NodeId(n));
    watch[n] += div[n];
    for (const TransId t : node.gateOf) {
      const auto& tr = net_.transistor(t);
      if (tr.isFaultDevice()) continue;
      watch[tr.source.value] += div[n];
      watch[tr.drain.value] += div[n];
    }
    if (node.isInput) {
      for (const TransId t : node.channelOf) {
        const NodeId other = net_.transistor(t).otherEnd(NodeId(n));
        watch[other.value] += nodeStuck_[n].size();
        stuckNbr[other.value] += nodeStuck_[n].size();
      }
    }
  }
  for (std::uint32_t t = 0; t < numTrans; ++t) {
    const auto& tr = net_.transistor(TransId(t));
    FMOSSIM_ASSERT(
        condGate_[t] == (tr.isFaultDevice() ? numNodes : tr.gate.value),
                   "flat gate out of step with the network");
    watch[tr.source.value] += transOverride_[t].size();
    watch[tr.drain.value] += transOverride_[t].size();
    // Listed at both ends exactly when it carries an override or its gate
    // diverges, at the slot its index says.
    const bool divergent =
        !transOverride_[t].empty() || (!tr.isFaultDevice() && div[tr.gate.value] != 0);
    FMOSSIM_ASSERT(chanDivergent_[t] == (divergent ? 1 : 0),
                   "divergent-channel flag out of step with its sources");
    const NodeId ends[2] = {tr.source, tr.drain};
    for (std::size_t e = 0; e < 2; ++e) {
      const std::uint32_t slot = divChanSlot_[t][e];
      if (!divergent) {
        FMOSSIM_ASSERT(slot == kNotListed,
                       "undivergent channel on a divergent-channel list");
        continue;
      }
      const std::uint32_t n = ends[e].value;
      FMOSSIM_ASSERT(slot < divChanSize_[n] &&
                         divChan_[divChanOff_[n] + slot] == TransId(t),
                     "divergent channel missing from its node's list");
    }
  }
  for (std::uint32_t n = 0; n < numNodes; ++n) {
    FMOSSIM_ASSERT(watchCount_[n] == watch[n],
                   "trigger watch count out of step with its sources");
    FMOSSIM_ASSERT(stuckNbrCount_[n] == stuckNbr[n],
                   "stuck-input-neighbour count out of step with the overlays");
    FMOSSIM_ASSERT(divChanSize_[n] <= divChanOff_[n + 1] - divChanOff_[n],
                   "divergent-channel list exceeds the node's channel count");
  }
  // With every listed transistor found at its slot above, sizes equal the
  // number of divergent channels iff no list holds a stale entry.
  std::vector<std::uint32_t> listed(numNodes, 0);
  for (std::uint32_t t = 0; t < numTrans; ++t) {
    if (divChanSlot_[t][0] == kNotListed) continue;
    const auto& tr = net_.transistor(TransId(t));
    ++listed[tr.source.value];
    ++listed[tr.drain.value];
  }
  for (std::uint32_t n = 0; n < numNodes; ++n) {
    FMOSSIM_ASSERT(divChanSize_[n] == listed[n],
                   "stale entry on a divergent-channel list");
    // The lane-group miss filter holds exactly the groups with a block here.
    std::uint64_t groups = 0;
    table_.forEachRecord(NodeId(n), [&](CircuitId c, State) {
      groups |= std::uint64_t{1} << (lanes::groupOf(c) % 64);
    });
    FMOSSIM_ASSERT(table_.groupMask(NodeId(n)) == groups,
                   "lane-group mask out of step with the node's blocks");
  }
  // Each circuit's fault site, rebuilt from the node-major overlay lists:
  // at most one overlay per circuit, and in transient mode only a pulse
  // held at the machine's node.
  std::vector<FaultSite> sites(numMachines_ + 1);
  const auto place = [&](CircuitId c, FaultSite fs) {
    FMOSSIM_ASSERT(sites[c] == FaultSite{},
                   "faulty circuit carries more than one fault overlay");
    sites[c] = fs;
  };
  for (std::uint32_t n = 0; n < numNodes; ++n) {
    for (const Override& o : nodeStuck_[n]) {
      place(o.circuit, {n, kNoSite, o.value});
    }
  }
  for (std::uint32_t t = 0; t < numTrans; ++t) {
    for (const Override& o : transOverride_[t]) {
      place(o.circuit, {kNoSite, t, o.value});
    }
  }
  for (CircuitId c = 1; c <= numMachines_; ++c) {
    if (transientMode_) {
      // A transient machine's only overlay is its held pulse, at its node.
      FMOSSIM_ASSERT(sites[c].trans == kNoSite &&
                         (sites[c].node == kNoSite ||
                          sites[c].node == transient_[c - 1].node.value),
                     "transient overlay away from the machine's pulse node");
    }
    FMOSSIM_ASSERT(site_[c] == sites[c],
                   "fault site out of step with the overlay lists");
  }
  FMOSSIM_ASSERT(site_[0] == FaultSite{}, "the good circuit has a fault site");
}

State ConcurrentFaultSimulator::faultyState(NodeId n, CircuitId c) const {
  FMOSSIM_ASSERT(c >= 1 && c <= numMachines_, "faultyState: bad circuit id");
  return stateIn(n, c);
}

// --- runs: one driver behind every entry point ------------------------------

namespace {

/// Hands each row to the run's sink and its onPattern callback: the one
/// place a callback joins the row stream.
class RowTee final : public RowSink {
 public:
  RowTee(RowSink* sink,
         const std::function<void(const PatternStat&)>& onPattern)
      : sink_(sink), onPattern_(onPattern) {}
  void row(const PatternStat& st) override {
    if (sink_ != nullptr) sink_->row(st);
    if (onPattern_) onPattern_(st);
  }

 private:
  RowSink* sink_;
  const std::function<void(const PatternStat&)>& onPattern_;
};

}  // namespace

FaultSimResult ConcurrentFaultSimulator::run(
    const TestSequence& seq,
    const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(!transientMode_,
                 "transient-mode engines run via runTransient/runTransientTail");
  if (replay_ != nullptr) {
    FMOSSIM_ASSERT(
        replay_->seqFingerprint() == GoodMachineCheckpoint::fingerprint(seq),
        "checkpoint was recorded for a different test sequence");
  }
  std::vector<PatternStat> rows;
  rows.reserve(seq.size());
  MaterializingRowSink sink(rows);
  MaterializedPatternSource source(seq);
  FaultSimResult res =
      drive(replay_ != nullptr ? nullptr : &source, &sink, onPattern);
  res.perPattern = std::move(rows);
  return res;
}

FaultSimResult ConcurrentFaultSimulator::run(
    PatternSource& source, RowSink* sink,
    const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(!transientMode_,
                 "transient-mode engines run via runTransient/runTransientTail");
  return drive(&source, sink, onPattern);
}

FaultSimResult ConcurrentFaultSimulator::runReplay(
    RowSink* sink, const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(!transientMode_,
                 "transient-mode engines run via runTransient/runTransientTail");
  return drive(nullptr, sink, onPattern);
}

bool ConcurrentFaultSimulator::applyNextPattern(PatternSource* source,
                                                Pattern& scratch) {
  if (source != nullptr) {
    if (!source->next(scratch)) return false;
    for (const InputSetting& setting : scratch.settings) {
      applySetting(setting.span());
    }
    return true;
  }
  // Replay: settle 0 (the initial all-X evaluation) ran in the constructor,
  // or the tail resume skipped the prefix. Each further recorded settle is
  // one applySetting of the recorded run, and the recorder logged exactly
  // the inputs that setting changed, in order: position the reader, apply
  // those changes, then settle (settleAll skips its own replayBeginSettle).
  // The recorded end-of-pattern bits say which settle closes the pattern.
  while (replaySettle_ < replay_->numSettles()) {
    const std::uint32_t si = replaySettle_;
    replayBeginSettle();
    replayEntered_ = true;
    for (const auto& ch : replayReader_->inputChanges()) {
      const State old = table_.good(ch.node());
      table_.setGood(ch.node(), ch.value());
      scheduleSettingSeeds(ch.node(), old);
    }
    settleAll();
    if (replay_->patternEndsAtSettle(si)) return true;
  }
  return false;
}

FaultSimResult ConcurrentFaultSimulator::drive(
    PatternSource* source, RowSink* sink,
    const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(!ran_, "ConcurrentFaultSimulator::run may only be called once");
  FMOSSIM_ASSERT((source == nullptr) == (replay_ != nullptr),
                 "a self-simulating engine runs a pattern source; a replay "
                 "engine drives from its checkpoint's trace");
  ran_ = true;
  RowTee out(sink, onPattern);
  const std::vector<NodeId>& outputs =
      source != nullptr ? source->outputs() : replay_->outputs();

  Timer total;
  const std::uint64_t evalsAtStart = nodeEvals();
  std::uint64_t pi = 0;
  if (transientMode_ && replay_ != nullptr) {
    // A tail-resumed engine starts at the boundary after its resume
    // pattern: that boundary's injections come first, then the next pattern.
    patternBoundary(resumeAfterPattern_);
    pi = resumeAfterPattern_ + 1;
  }
  std::uint32_t cumulative = 0;
  bool earlyExit = false;
  Pattern scratch;
  for (;; ++pi) {
    Timer patternTimer;
    const std::uint64_t evalsBefore = nodeEvals();
    if (!applyNextPattern(source, scratch)) break;
    const std::uint32_t newly =
        observe(outputs, static_cast<std::uint32_t>(pi));
    if (record_ != nullptr) record_->endPattern();
    patternBoundary(pi);
    cumulative += newly;

    PatternStat st;
    st.index = static_cast<std::uint32_t>(pi);
    st.seconds = patternTimer.seconds();
    st.nodeEvals = nodeEvals() - evalsBefore;
    st.newlyDetected = newly;
    st.cumulativeDetected = cumulative;
    st.aliveAfter = aliveCount_;
    out.row(st);

    // Replay-mode early exit: with every faulty circuit detected and
    // dropped, the remaining patterns would be pure good-machine replay.
    // The rows they would produce are fully determined (no detections, no
    // live circuits, no faulty solver work) and the checkpoint supplies the
    // end-of-sequence good states, so the tail is synthesized instead of
    // simulated — the lever that lets a fault batch cost only as many
    // patterns as its hardest-to-detect fault needs.
    if (replay_ != nullptr && options_.dropDetected && aliveCount_ == 0 &&
        pi + 1 < replay_->numPatterns()) {
      PatternStat tail;
      tail.cumulativeDetected = cumulative;
      while (++pi < replay_->numPatterns()) {
        tail.index = static_cast<std::uint32_t>(pi);
        out.row(tail);
      }
      earlyExit = true;
      break;
    }
  }

  FaultSimResult res;
  res.numFaults = numMachines_;
  res.numPatterns = pi;
  res.droppedDetected = options_.dropDetected;
  res.detectedAtPattern = detectedAt_;
  res.numDetected = cumulative;
  res.maxAlive = maxAliveObserved_;
  if (earlyExit) {
    res.finalGoodStates = replay_->finalGoodStates();
  } else {
    res.finalGoodStates.reserve(net_.numNodes());
    for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
      res.finalGoodStates.push_back(table_.good(NodeId(n)));
    }
  }
  res.finalRecords = table_.totalRecords();
  res.potentialDetections = potentialDetections_;
  res.totalSeconds = total.seconds();
  // One engine, one thread: aggregate engine time is the wall clock.
  res.totalCpuSeconds = res.totalSeconds;
  res.totalNodeEvals = nodeEvals() - evalsAtStart;
  return res;
}

// --- transient (SEU) runs (see header and faults/transient.hpp) ------------

void ConcurrentFaultSimulator::loadTransientSpecs(
    std::span<const TransientFault> specs, std::uint64_t numPatterns) {
  if (specs.size() != numMachines_) {
    throw Error(
        "transient run: spec count does not match the engine's machine count");
  }
  for (std::uint32_t i = 0; i < numMachines_; ++i) {
    const TransientFault& f = specs[i];
    if (!f.node.valid() || f.node.value >= net_.numNodes()) {
      throw Error("transient fault references an unknown node");
    }
    if (net_.isInput(f.node)) {
      throw Error("transient fault on input node '" + net_.node(f.node).name +
                  "'");
    }
    if (f.atPattern >= numPatterns) {
      throw Error("transient fault '" + f.name +
                  "' injects past the end of the sequence");
    }
    TransientMachine& m = transient_[i];
    m.node = f.node;
    m.atPattern = f.atPattern;
    m.pulsePatterns = f.pulsePatterns;
  }
}

void ConcurrentFaultSimulator::scheduleTransientSite(CircuitId c, NodeId n) {
  // Exactly a node-stuck injection's event seeds: the node's own vicinity
  // must re-settle under the perturbed charge, and every transistor it
  // gates may now conduct differently in circuit c.
  scheduleFaulty(c, n);
  for (const TransId t : net_.node(n).gateOf) {
    const auto& tr = net_.transistor(t);
    scheduleFaulty(c, tr.source);
    scheduleFaulty(c, tr.drain);
  }
}

void ConcurrentFaultSimulator::injectTransientFlip(CircuitId c) {
  TransientMachine& m = transient_[c - 1];
  m.injected = true;
  const State good = table_.good(m.node);
  const State flipped = good == State::S0   ? State::S1
                        : good == State::S1 ? State::S0
                                            : State::SX;
  if (m.pulsePatterns == 0) {
    // Instantaneous flip: a plain divergence record (flipping an X is a
    // ternary no-op — the machine trivially stays silent).
    if (flipped == good) return;
    const StateTable::Reconciled rec = table_.reconcile(m.node, c, flipped);
    if (rec.inserted) {
      touchedInsert(c, m.node);
      addRecordWatch(m.node, +1);
    }
    scheduleTransientSite(c, m.node);
    return;
  }
  // Pulse: hold the node at the flipped value (a temporary stuck-at — the
  // node becomes input-like in circuit c until release). Held even when
  // flipped == good == X: the good circuit may move on while the struck
  // node stays pinned.
  addOverlay(c, {m.node.value, kNoSite, flipped});
  scheduleTransientSite(c, m.node);
}

void ConcurrentFaultSimulator::releaseTransientPulse(CircuitId c) {
  FMOSSIM_ASSERT(pulseHeld(c), "releaseTransientPulse without active pulse");
  const NodeId n = transient_[c - 1].node;
  const State held = site_[c].value;
  removeOverlay(c);
  // The held value stays behind as charge. A stuck node never carries a
  // record in its own circuit (it is input-like there), so reconciliation
  // inserts at most.
  if (held != table_.good(n)) {
    const StateTable::Reconciled rec = table_.reconcile(n, c, held);
    if (rec.inserted) {
      touchedInsert(c, n);
      addRecordWatch(n, +1);
    }
  }
  scheduleTransientSite(c, n);
}

SettleResult ConcurrentFaultSimulator::settleInPlace() {
  // An injection or release perturbs circuits *between* patterns, where the
  // good machine is quiet: in replay mode the cursor must not advance (there
  // is no recorded settle for this perturbation), and the current settle's
  // phases are already consumed, so only faulty activity runs — exactly what
  // a self-simulating engine does with an empty good queue.
  if (replay_ != nullptr) replayEntered_ = true;
  return settleAll();
}

bool ConcurrentFaultSimulator::hasDivergence(CircuitId c) const {
  FMOSSIM_ASSERT(transientMode_, "hasDivergence is a transient-mode query");
  FMOSSIM_ASSERT(c >= 1 && c <= numMachines_, "hasDivergence: bad circuit id");
  const TransientMachine& m = transient_[c - 1];
  if (pulseHeld(c) && site_[c].value != table_.good(m.node)) return true;
  for (const NodeId n : touched_[c]) {
    const StateTable::Lookup r = table_.lookup(n, c);
    if (r.diverges && r.value != table_.good(n)) return true;
  }
  return false;
}

void ConcurrentFaultSimulator::patternBoundary(std::uint64_t pi) {
  if (!transientMode_) return;
  bool perturbed = false;
  for (CircuitId c = 1; c <= numMachines_; ++c) {
    TransientMachine& m = transient_[c - 1];
    if (!m.injected && m.atPattern == pi) {
      m.injected = true;
      if (alive_[c]) {
        injectTransientFlip(c);
        perturbed = true;
      }
    } else if (pulseHeld(c) && alive_[c] &&
               pi == m.atPattern + m.pulsePatterns) {
      releaseTransientPulse(c);
      perturbed = true;
    }
  }
  if (perturbed) settleInPlace();
}

FaultSimResult ConcurrentFaultSimulator::runTransient(
    const TestSequence& seq, std::span<const TransientFault> specs,
    const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(transientMode_ && replay_ == nullptr,
                 "runTransient is the naive (self-simulating) transient run");
  loadTransientSpecs(specs, seq.size());
  MaterializedPatternSource source(seq);
  return drive(&source, nullptr, onPattern);
}

FaultSimResult ConcurrentFaultSimulator::runTransientTail(
    std::span<const TransientFault> specs,
    const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(transientMode_ && replay_ != nullptr,
                 "runTransientTail requires a checkpoint-resumed engine");
  loadTransientSpecs(specs, replay_->numPatterns());
  for (const TransientFault& f : specs) {
    if (f.atPattern != resumeAfterPattern_) {
      throw Error("runTransientTail: injection '" + f.name +
                  "' is not at the engine's resume instant");
    }
  }
  return drive(nullptr, nullptr, onPattern);
}

}  // namespace fmossim
