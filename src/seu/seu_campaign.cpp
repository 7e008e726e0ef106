#include "seu/seu_campaign.hpp"

#include <atomic>
#include <map>
#include <span>

#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace fmossim::seu {

const char* outcomeName(Outcome o) {
  switch (o) {
    case Outcome::Detected: return "detected";
    case Outcome::Silent: return "silent";
    case Outcome::Latent: return "latent";
  }
  return "?";
}

std::uint64_t CampaignResult::checksum() const {
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, injections.size());
  for (const InjectionResult& r : injections) {
    fnvMix(h, static_cast<std::uint64_t>(r.outcome));
    fnvMix(h, static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(r.detectedAtPattern)));
  }
  fnvMix(h, numDetected);
  fnvMix(h, numSilent);
  fnvMix(h, numLatent);
  return h;
}

namespace {

/// One same-instant injection group: campaign indices, in campaign order
/// (machine i+1 of the group engine simulates campaign[indices[i]]).
struct Group {
  std::uint64_t atPattern = 0;
  std::vector<std::uint32_t> indices;
};

Outcome classify(const ConcurrentFaultSimulator& sim, std::uint32_t machine,
                 const FaultSimResult& res) {
  if (res.detectedAtPattern[machine] >= 0) return Outcome::Detected;
  return sim.hasDivergence(machine + 1) ? Outcome::Latent : Outcome::Silent;
}

}  // namespace

CampaignResult runSeuCampaign(const Network& net, const TestSequence& seq,
                              const TransientList& campaign,
                              const CampaignOptions& options) {
  if (campaign.empty()) {
    throw Error("SEU campaign has no injections");
  }
  // Validate up front (the engines re-check, but a campaign-level error
  // should name the injection before any thread spins up).
  for (const TransientFault& f : campaign) {
    if (!f.node.valid() || f.node.value >= net.numNodes()) {
      throw Error("SEU campaign references an unknown node");
    }
    if (net.isInput(f.node)) {
      throw Error("SEU injection '" + f.name + "' targets an input node");
    }
    if (f.atPattern >= seq.size()) {
      throw Error("SEU injection '" + f.name +
                  "' is past the end of the sequence");
    }
  }

  FsimOptions engineOpts;
  engineOpts.sim = options.sim;
  engineOpts.policy = options.policy;
  engineOpts.dropDetected = true;

  CampaignResult result;
  result.injections.resize(campaign.size());
  for (std::uint32_t i = 0; i < campaign.size(); ++i) {
    result.injections[i].fault = campaign[i];
  }

  // Group by instant (ordered map: group order, like the results, is
  // deterministic no matter which worker claims what).
  std::map<std::uint64_t, Group> byInstant;
  for (std::uint32_t i = 0; i < campaign.size(); ++i) {
    Group& g = byInstant[campaign[i].atPattern];
    g.atPattern = campaign[i].atPattern;
    g.indices.push_back(i);
  }
  std::vector<Group> groups;
  groups.reserve(byInstant.size());
  for (auto& [at, g] : byInstant) groups.push_back(std::move(g));
  result.numGroups = static_cast<std::uint32_t>(groups.size());

  Timer total;

  std::shared_ptr<const GoodMachineCheckpoint> ck;
  if (!options.naive) {
    std::shared_ptr<CheckpointStore> store = options.store;
    if (store == nullptr) {
      CheckpointStore::Options so;
      so.budgetBytes = options.checkpointBudgetBytes;
      store = std::make_shared<CheckpointStore>(so);
    }
    bool recordedNow = false;
    ck = store->acquire(net, seq, engineOpts, &recordedNow);
    result.recordedCheckpoint = recordedNow;
  }

  // Work items: groups in replay mode, single injections in naive mode (a
  // naive engine per injection keeps the baseline honest — one from-scratch
  // sequence simulation each — and parallelizes trivially).
  const std::size_t numItems =
      options.naive ? campaign.size() : groups.size();
  std::atomic<std::uint64_t> nodeEvals{0};
  forEachClaimed(numItems, options.jobs, [&](std::size_t item) {
    if (options.checkPoint) options.checkPoint();
    if (options.naive) {
      const std::uint32_t i = static_cast<std::uint32_t>(item);
      ConcurrentFaultSimulator sim(net, 1u, engineOpts);
      const TransientFault spec = campaign[i];
      const FaultSimResult res =
          sim.runTransient(seq, std::span<const TransientFault>(&spec, 1));
      result.injections[i].outcome = classify(sim, 0, res);
      result.injections[i].detectedAtPattern = res.detectedAtPattern[0];
      nodeEvals.fetch_add(res.totalNodeEvals);
    } else {
      const Group& g = groups[item];
      std::vector<TransientFault> specs;
      specs.reserve(g.indices.size());
      for (const std::uint32_t i : g.indices) specs.push_back(campaign[i]);
      ConcurrentFaultSimulator sim(
          net, static_cast<std::uint32_t>(specs.size()), engineOpts,
          ck.get(), g.atPattern);
      const FaultSimResult res = sim.runTransientTail(specs);
      for (std::uint32_t k = 0; k < g.indices.size(); ++k) {
        const std::uint32_t i = g.indices[k];
        result.injections[i].outcome = classify(sim, k, res);
        result.injections[i].detectedAtPattern = res.detectedAtPattern[k];
      }
      nodeEvals.fetch_add(res.totalNodeEvals);
    }
  });

  for (const InjectionResult& r : result.injections) {
    switch (r.outcome) {
      case Outcome::Detected: ++result.numDetected; break;
      case Outcome::Silent: ++result.numSilent; break;
      case Outcome::Latent: ++result.numLatent; break;
    }
  }
  result.totalNodeEvals = nodeEvals.load();
  result.totalSeconds = total.seconds();
  return result;
}

}  // namespace fmossim::seu
