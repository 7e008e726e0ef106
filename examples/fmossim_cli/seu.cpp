// fmossim_cli seu: transient-fault (single-event upset) grading campaigns
// replayed from a checkpointed good-machine trace (src/seu/).
#include <cstdio>
#include <optional>
#include <string>

#include "cli.hpp"
#include "faults/transient.hpp"
#include "gen/transient_gen.hpp"
#include "seu/seu_campaign.hpp"
#include "util/strings.hpp"

namespace fmossim::cli {

namespace {

int seuUsage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s seu (--sim FILE | --bench FILE | --demo) --seq FILE\n"
      "              (--inject FILE     transient campaign spec\n"
      "                                 (flip <node> @ <pattern> [pulse <d>])\n"
      "               | --gen N         generate N seeded injections)\n"
      "              [--seed S          generation seed (default 1)]\n"
      "              [--instants K      cluster generated injections onto at\n"
      "                                 most K distinct instants (default 0 =\n"
      "                                 unclustered; clustering shares replay\n"
      "                                 tails between same-instant strikes)]\n"
      "              [--jobs N          worker threads over injection groups]\n"
      "              [--policy any|definite (default: definite)]\n"
      "              [--naive           from-scratch baseline: one full\n"
      "                                 sequence simulation per injection,\n"
      "                                 no checkpoint]\n"
      "              [--verify          run BOTH modes and fail (exit 1)\n"
      "                                 unless results are bit-identical]\n"
      "              [--checkpoint-budget SIZE  good-machine trace budget\n"
      "                                 (bytes, k/m/g; 0 = unbounded)]\n"
      "              [--quiet]\n"
      "Grades each transient as detected (output mismatch), latent (state\n"
      "still differs at end of sequence) or silent (reconverged). The good\n"
      "machine is recorded once; injections grouped by instant replay only\n"
      "the tail after their strike. Deterministic for fixed inputs across\n"
      "--jobs.\n",
      argv0);
  return to == stderr ? 2 : 0;
}

}  // namespace

int runSeu(int argc, char** argv) {
  CircuitInput input;
  std::optional<std::string> injectFile;
  std::optional<std::uint32_t> genCount;
  std::uint64_t seed = 1;
  std::uint32_t instants = 0;
  bool naive = false, verify = false, quiet = false;
  seu::CampaignOptions opts;

  for (Args a(argc, argv, 2); a.next();) {
    const std::string& arg = a.flag();
    if (input.take(a)) continue;
    if (arg == "--help") return seuUsage(stdout, argv[0]);
    else if (arg == "--inject") injectFile = a.value();
    else if (arg == "--gen") genCount = a.count(kU32Max);
    else if (arg == "--seed") seed = a.u64();
    else if (arg == "--instants") instants = a.count(kU32Max);
    else if (arg == "--jobs") opts.jobs = a.count(1u << 16);
    else if (arg == "--policy") opts.policy = a.policy();
    else if (arg == "--naive") naive = true;
    else if (arg == "--verify") verify = true;
    else if (arg == "--checkpoint-budget") opts.checkpointBudgetBytes = a.bytes();
    else if (arg == "--quiet") quiet = true;
    else {
      a.rejectFlag();
      return seuUsage(stderr, argv[0]);
    }
  }
  if (!input.complete()) return seuUsage(stderr, argv[0]);
  if (injectFile.has_value() == genCount.has_value()) {
    std::fprintf(stderr,
                 "seu: exactly one of --inject FILE or --gen N is required\n");
    return 2;
  }

  // Malformed inputs (netlist, sequence, campaign spec) are invalid
  // invocations: exit 2, mirroring the main driver.
  Network net;
  TestSequence seq;
  TransientList campaign;
  try {
    loadCircuit(input, net, seq);
    if (injectFile) {
      campaign = loadTransientSpecFile(net, *injectFile);
    } else {
      SeuGenOptions g;
      g.seed = seed;
      g.numInjections = *genCount;
      g.numPatterns = seq.size();
      g.maxInstants = instants;
      campaign = generateSeuCampaign(net, g);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (!quiet) {
    std::printf("network: %u transistors, %u nodes (%u inputs); sequence: %u "
                "patterns\n",
                net.numTransistors(), net.numNodes(), net.numInputs(),
                seq.size());
    std::printf("campaign: %zu injection(s)%s\n", campaign.size(),
                genCount ? format(" (generated, seed %llu)",
                                  static_cast<unsigned long long>(seed))
                               .c_str()
                         : "");
  }

  opts.naive = naive;
  const seu::CampaignResult res = runSeuCampaign(net, seq, campaign, opts);

  if (verify) {
    seu::CampaignOptions other = opts;
    other.naive = !naive;
    const seu::CampaignResult ref = runSeuCampaign(net, seq, campaign, other);
    if (ref.checksum() != res.checksum()) {
      std::fprintf(stderr,
                   "seu --verify: MISMATCH — %s=0x%016llx vs %s=0x%016llx\n",
                   naive ? "naive" : "replay",
                   static_cast<unsigned long long>(res.checksum()),
                   naive ? "replay" : "naive",
                   static_cast<unsigned long long>(ref.checksum()));
      return 1;
    }
    if (!quiet) {
      std::printf("verify: replay and naive campaigns bit-identical\n");
    }
  }

  if (!quiet) {
    std::printf("\n%-28s %-9s %s\n", "injection", "outcome", "detected at");
    for (const seu::InjectionResult& r : res.injections) {
      if (r.detectedAtPattern >= 0) {
        std::printf("%-28s %-9s pattern %d\n", r.fault.name.c_str(),
                    seu::outcomeName(r.outcome), r.detectedAtPattern);
      } else {
        std::printf("%-28s %-9s -\n", r.fault.name.c_str(),
                    seu::outcomeName(r.outcome));
      }
    }
  }
  std::printf("\nseu: %zu injection(s): %u detected, %u silent, %u latent "
              "(%u group(s), %s)\n",
              res.injections.size(), res.numDetected, res.numSilent,
              res.numLatent, res.numGroups,
              naive ? "naive" : "checkpoint replay");
  std::printf("time: %.4f s, work: %llu faulty node evaluations, checksum "
              "0x%016llx\n",
              res.totalSeconds,
              static_cast<unsigned long long>(res.totalNodeEvals),
              static_cast<unsigned long long>(res.checksum()));
  return 0;
}

}  // namespace fmossim::cli
