#include "patterns/pattern_source.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace fmossim {

namespace {

/// The one per-pattern fold of the sequence fingerprint.
void foldPattern(std::uint64_t& h, const Pattern& p) {
  fnvMix(h, p.settings.size());
  for (const InputSetting& s : p.settings) {
    fnvMix(h, s.assignments.size());
    for (const auto& [n, v] : s.assignments) {
      fnvMix(h, (std::uint64_t(n.value) << 8) | std::uint64_t(v));
    }
  }
}

}  // namespace

std::uint64_t PatternSource::fingerprint() {
  if (fingerprint_.has_value()) return *fingerprint_;
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, numPatterns());
  foldPatterns(h);
  fnvMix(h, outputs().size());
  for (const NodeId out : outputs()) fnvMix(h, out.value);
  fingerprint_ = h;
  return h;
}

void PatternSource::foldPatterns(std::uint64_t& h) {
  rewind();
  Pattern p;
  while (next(p)) foldPattern(h, p);
  rewind();
}

bool MaterializedPatternSource::next(Pattern& out) {
  if (next_ >= seq_->size()) return false;
  out = (*seq_)[next_++];
  return true;
}

void MaterializedPatternSource::foldPatterns(std::uint64_t& h) {
  for (const Pattern& p : seq_->patterns()) foldPattern(h, p);
}

namespace {

State randomDefinite(Rng& rng) {
  return rng.below(2) == 0 ? State::S0 : State::S1;
}

State randomInputValue(Rng& rng, double xProbability) {
  return rng.chance(xProbability) ? State::SX : randomDefinite(rng);
}

}  // namespace

bool GeneratedPatternSource::next(Pattern& out) {
  if (next_ >= config_.numPatterns) return false;
  const std::uint64_t p = next_++;
  // The sequence rule, verbatim from the generator: the first setting
  // powers the rails and drives every data input to a definite value;
  // later settings flip random input subsets. Draw order is load-bearing —
  // generateWorkload() materializes through this exact code, so streamed
  // and materialized sequences agree bit for bit.
  out.label = "p" + std::to_string(p);
  out.settings.clear();
  const std::uint32_t numSettings =
      1 + static_cast<std::uint32_t>(
              rng_.below(std::max(1u, config_.maxSettingsPerPattern)));
  for (std::uint32_t s = 0; s < numSettings; ++s) {
    InputSetting st;
    if (p == 0 && s == 0) {
      st.set(config_.vdd, State::S1);
      st.set(config_.gnd, State::S0);
      for (const NodeId in : config_.inputs) {
        st.set(in, randomDefinite(rng_));
      }
    } else {
      for (const NodeId in : config_.inputs) {
        if (rng_.chance(0.4)) {
          st.set(in, randomInputValue(rng_, config_.xProbability));
        }
      }
      if (st.assignments.empty()) {
        // Two sequenced draws: argument evaluation order is unspecified,
        // and seed reproducibility must not depend on the compiler.
        const NodeId in = rng_.pick(config_.inputs);
        st.set(in, randomInputValue(rng_, config_.xProbability));
      }
    }
    out.settings.push_back(std::move(st));
  }
  return true;
}

FilePatternSource::FilePatternSource(const Network& net, std::string path)
    : net_(&net), path_(std::move(path)) {
  reopen();
  outputs_ = reader_->outputs();
  if (outputs_.empty()) {
    throw Error("sequence file '" + path_ + "' declares no outputs");
  }
  if (reader_->declaredPatterns().has_value()) {
    numPatterns_ = *reader_->declaredPatterns();
  } else {
    // No declared count: one counting pre-scan, then reopen.
    Pattern scratch;
    while (reader_->next(scratch)) {
    }
    numPatterns_ = reader_->patternsRead();
    reopen();
  }
  if (numPatterns_ == 0) {
    throw Error("sequence file '" + path_ + "' contains no patterns");
  }
}

void FilePatternSource::reopen() {
  reader_.reset();
  in_ = std::ifstream(path_);
  if (!in_) {
    throw Error("cannot open sequence file '" + path_ + "'");
  }
  reader_ = std::make_unique<SequenceStreamReader>(*net_, in_);
}

bool FilePatternSource::next(Pattern& out) { return reader_->next(out); }

}  // namespace fmossim
