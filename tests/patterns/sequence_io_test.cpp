// Sequence text format: parsing, validation, round trip.
#include "patterns/sequence_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "circuits/cells.hpp"
#include "switch/builder.hpp"

namespace fmossim {
namespace {

Network makeNet() {
  NetworkBuilder b;
  NmosCells cells(b);
  const NodeId in = b.addInput("in");
  const NodeId clk = b.addInput("clk");
  const NodeId inv = cells.inverter(in, "inv");
  cells.pass(clk, inv, b.addNode("out"));
  return b.build();
}

TEST(SequenceIoTest, ParsesPatternsAndOutputs) {
  const Network net = makeNet();
  const TestSequence seq = parseSequence(net,
                                         "# demo\n"
                                         "outputs out inv\n"
                                         "pattern p0\n"
                                         "  set Vdd=1 Gnd=0 in=0 clk=1\n"
                                         "  set clk=0\n"
                                         "pattern\n"
                                         "  set in=X\n");
  EXPECT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq.outputs().size(), 2u);
  EXPECT_EQ(seq[0].label, "p0");
  EXPECT_EQ(seq[0].settings.size(), 2u);
  EXPECT_EQ(seq[0].settings[0].assignments.size(), 4u);
  EXPECT_EQ(seq[1].settings[0].assignments[0].second, State::SX);
}

TEST(SequenceIoTest, RejectsMalformedInput) {
  const Network net = makeNet();
  // set before pattern
  EXPECT_THROW(parseSequence(net, "outputs out\nset in=1\n"), Error);
  // unknown node
  EXPECT_THROW(parseSequence(net, "outputs out\npattern\nset bogus=1\n"), Error);
  // non-input assignment
  EXPECT_THROW(parseSequence(net, "outputs out\npattern\nset inv=1\n"), Error);
  // bad value
  EXPECT_THROW(parseSequence(net, "outputs out\npattern\nset in=2\n"), Error);
  // malformed assignment
  EXPECT_THROW(parseSequence(net, "outputs out\npattern\nset in\n"), Error);
  // empty pattern
  EXPECT_THROW(parseSequence(net, "outputs out\npattern\npattern\nset in=1\n"),
               Error);
  // no outputs
  EXPECT_THROW(parseSequence(net, "pattern\nset in=1\n"), Error);
  // no patterns
  EXPECT_THROW(parseSequence(net, "outputs out\n"), Error);
  // unknown directive
  EXPECT_THROW(parseSequence(net, "outputs out\nfrobnicate\n"), Error);
  // unknown output node
  EXPECT_THROW(parseSequence(net, "outputs nope\npattern\nset in=1\n"), Error);
  // header lines after the first pattern
  EXPECT_THROW(parseSequence(net, "pattern\nset in=1\noutputs out\n"), Error);
  EXPECT_THROW(
      parseSequence(net, "outputs out\npattern\nset in=1\npatterns 1\n"),
      Error);
}

TEST(SequenceIoTest, ErrorsCarryLineNumbers) {
  const Network net = makeNet();
  try {
    parseSequence(net, "outputs out\npattern\n  set in=9\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(SequenceIoTest, WriteParseRoundTrip) {
  const Network net = makeNet();
  const TestSequence seq = parseSequence(net,
                                         "outputs out\n"
                                         "pattern alpha\n"
                                         "  set Vdd=1 Gnd=0 in=1 clk=0\n"
                                         "  set clk=1\n"
                                         "pattern beta\n"
                                         "  set in=0\n");
  const std::string text = writeSequence(net, seq);
  const TestSequence again = parseSequence(net, text);
  ASSERT_EQ(again.size(), seq.size());
  EXPECT_EQ(again.outputs(), seq.outputs());
  for (std::uint32_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(again[i].label, seq[i].label);
    ASSERT_EQ(again[i].settings.size(), seq[i].settings.size());
    for (std::size_t s = 0; s < seq[i].settings.size(); ++s) {
      EXPECT_EQ(again[i].settings[s].assignments,
                seq[i].settings[s].assignments);
    }
  }
}

bool equivalent(const TestSequence& a, const TestSequence& b) {
  if (a.size() != b.size() || a.outputs() != b.outputs()) return false;
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label) return false;
    if (a[i].settings.size() != b[i].settings.size()) return false;
    for (std::size_t s = 0; s < a[i].settings.size(); ++s) {
      if (a[i].settings[s].assignments != b[i].settings[s].assignments) {
        return false;
      }
    }
  }
  return true;
}

TEST(SequenceIoTest, ParseEmitParseIsExactlyEquivalent) {
  const Network net = makeNet();
  // Exercise every directive shape: multiple outputs, labelled and
  // unlabelled patterns, multi-assignment and single-assignment settings,
  // X values, comments and blank lines.
  const std::string original =
      "# header comment\n"
      "outputs out inv\n"
      "\n"
      "pattern init\n"
      "  set Vdd=1 Gnd=0 in=0 clk=1\n"
      "pattern\n"
      "  set in=X\n"
      "  set clk=0\n"
      "pattern last\n"
      "  set in=1 clk=1\n";
  const TestSequence once = parseSequence(net, original);
  const std::string emitted = writeSequence(net, once);
  const TestSequence twice = parseSequence(net, emitted);
  EXPECT_TRUE(equivalent(once, twice));
  // Emission is a fixed point: emit(parse(emit(x))) == emit(x).
  EXPECT_EQ(writeSequence(net, twice), emitted);
}

TEST(SequenceIoTest, WriteRejectsUnrepresentableSequences) {
  const Network net = makeNet();
  const NodeId in = net.nodeByName("in");
  const NodeId out = net.nodeByName("out");

  // No patterns / no outputs (parse would reject the emitted text).
  EXPECT_THROW(writeSequence(net, TestSequence{}), Error);
  {
    TestSequence seq;
    Pattern p;
    InputSetting s;
    s.set(in, State::S1);
    p.settings.push_back(s);
    seq.addPattern(p);  // no outputs
    EXPECT_THROW(writeSequence(net, seq), Error);
  }
  // A pattern with no settings would emit a bare "pattern" line that fails
  // to reparse.
  {
    TestSequence seq;
    seq.addOutput(out);
    seq.addPattern(Pattern{});
    EXPECT_THROW(writeSequence(net, seq), Error);
  }
  // An empty setting would emit a bare "set" line.
  {
    TestSequence seq;
    seq.addOutput(out);
    Pattern p;
    p.settings.push_back(InputSetting{});
    seq.addPattern(p);
    EXPECT_THROW(writeSequence(net, seq), Error);
  }
  // An assignment to a non-input node would emit a line the parser rejects.
  {
    TestSequence seq;
    seq.addOutput(out);
    Pattern p;
    InputSetting s;
    s.set(net.nodeByName("inv"), State::S1);  // storage node, not an input
    p.settings.push_back(s);
    seq.addPattern(p);
    EXPECT_THROW(writeSequence(net, seq), Error);
  }
  // A multi-token label would reparse as a different label.
  {
    TestSequence seq;
    seq.addOutput(out);
    Pattern p;
    p.label = "two words";
    InputSetting s;
    s.set(in, State::S1);
    p.settings.push_back(s);
    seq.addPattern(p);
    EXPECT_THROW(writeSequence(net, seq), Error);
  }
}

TEST(SequenceIoTest, UnusualButParseableTokensRoundTrip) {
  // '#' only opens a comment at the start of a line and '=' only separates
  // inside assignments, so both are legal mid-token in labels and output
  // names — the writer must carry them, not reject them.
  const Network net = makeNet();
  const TestSequence once = parseSequence(net,
                                          "outputs out\n"
                                          "pattern a=b\n"
                                          "  set in=1\n"
                                          "pattern x#y\n"
                                          "  set in=0\n");
  EXPECT_EQ(once[0].label, "a=b");
  EXPECT_EQ(once[1].label, "x#y");
  const TestSequence twice = parseSequence(net, writeSequence(net, once));
  EXPECT_TRUE(equivalent(once, twice));
}

TEST(SequenceIoTest, ParseRejectsMultiTokenPatternLabels) {
  const Network net = makeNet();
  // "pattern a b" used to silently drop 'b'; round-trip symmetry requires
  // rejecting what the writer may not emit.
  EXPECT_THROW(parseSequence(net, "outputs out\npattern a b\nset in=1\n"),
               Error);
}

// --- 64-bit `patterns N` declared counts ------------------------------------
//
// The count directive is 64-bit end to end: a sequence file can declare more
// than 2^32 patterns (only the streaming reader can actually consume such a
// file; parseSequence would fail its count check long before materializing).
// Strict parse: digits only, 64-bit overflow rejected, no stoul truncation.

TEST(SequenceIoTest, DeclaredCountIsCheckedAgainstContents) {
  const Network net = makeNet();
  const TestSequence seq = parseSequence(net,
                                         "outputs out\n"
                                         "patterns 2\n"
                                         "pattern\n  set in=1\n"
                                         "pattern\n  set in=0\n");
  EXPECT_EQ(seq.size(), 2u);
  EXPECT_THROW(parseSequence(net,
                             "outputs out\npatterns 3\n"
                             "pattern\n  set in=1\n"),
               Error);
  // duplicate directive
  EXPECT_THROW(parseSequence(net,
                             "outputs out\npatterns 1\npatterns 1\n"
                             "pattern\n  set in=1\n"),
               Error);
}

TEST(SequenceIoTest, CountPast32BitsIsCarriedNotTruncated) {
  const Network net = makeNet();
  // 2^32 + 2 would silently truncate to 2 under a 32-bit count — the
  // declared/actual mismatch must report the full 64-bit value instead of
  // accepting the file.
  try {
    parseSequence(net,
                  "outputs out\npatterns 4294967298\n"
                  "pattern\n  set in=1\npattern\n  set in=0\n");
    FAIL() << "expected a declared-count mismatch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("4294967298"), std::string::npos)
        << e.what();
  }
}

TEST(SequenceIoTest, CountParseIsStrict) {
  const Network net = makeNet();
  const char* tail = "pattern\n  set in=1\n";
  for (const char* bad :
       {"patterns 12abc\n", "patterns -1\n", "patterns\n",
        "patterns 1 2\n",
        // one past 2^64 - 1, and a wildly longer digit string
        "patterns 18446744073709551616\n",
        "patterns 99999999999999999999999\n"}) {
    EXPECT_THROW(
        parseSequence(net, std::string("outputs out\n") + bad + tail), Error)
        << bad;
  }
  // The exact 64-bit maximum itself parses (and then mismatches the actual
  // pattern count, proving it survived undamaged).
  try {
    parseSequence(net,
                  "outputs out\npatterns 18446744073709551615\n"
                  "pattern\n  set in=1\n");
    FAIL() << "expected a declared-count mismatch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("18446744073709551615"),
              std::string::npos)
        << e.what();
  }
}

// --- streaming reader/writer -------------------------------------------------

TEST(SequenceIoTest, StreamReaderYieldsWhatParseSequenceBuilds) {
  const Network net = makeNet();
  const std::string text =
      "outputs out inv\n"
      "patterns 3\n"
      "pattern p0\n  set Vdd=1 Gnd=0 in=0 clk=1\n  set clk=0\n"
      "pattern\n  set in=X\n"
      "pattern p2\n  set in=1 clk=1\n";
  const TestSequence want = parseSequence(net, text);

  std::istringstream in(text);
  SequenceStreamReader reader(net, in);
  EXPECT_EQ(reader.outputs(), want.outputs());
  ASSERT_TRUE(reader.declaredPatterns().has_value());
  EXPECT_EQ(*reader.declaredPatterns(), 3u);
  TestSequence got;
  got.setOutputs(reader.outputs());
  Pattern p;
  while (reader.next(p)) got.addPattern(Pattern(p));
  EXPECT_TRUE(equivalent(want, got));
}

TEST(SequenceIoTest, StreamReaderEnforcesDeclaredCount) {
  const Network net = makeNet();
  // Fewer patterns than declared: the shortfall surfaces at end of stream.
  {
    std::istringstream in("outputs out\npatterns 2\npattern\n  set in=1\n");
    SequenceStreamReader reader(net, in);
    Pattern p;
    ASSERT_TRUE(reader.next(p));
    EXPECT_THROW(reader.next(p), Error);
  }
  // More patterns than declared: rejected at the excess pattern, so a
  // streaming consumer never reads past the contract.
  {
    std::istringstream in(
        "outputs out\npatterns 1\n"
        "pattern\n  set in=1\npattern\n  set in=0\n");
    SequenceStreamReader reader(net, in);
    Pattern p;
    ASSERT_TRUE(reader.next(p));
    EXPECT_THROW(reader.next(p), Error);
  }
}

TEST(SequenceIoTest, StreamWriterEnforcesDeclaredCount) {
  const Network net = makeNet();
  const NodeId in = net.nodeByName("in");
  const NodeId out = net.nodeByName("out");
  Pattern p;
  InputSetting s;
  s.set(in, State::S1);
  p.settings.push_back(s);

  // The header carries the full 64-bit declared count.
  {
    std::ostringstream text;
    SequenceStreamWriter writer(net, text, {out}, 4294967298ull);
    writer.write(p);
    EXPECT_NE(text.str().find("patterns 4294967298"), std::string::npos);
    EXPECT_THROW(writer.finish(), Error);  // wrote 1 of 4294967298
  }
  // Writing past the declared count is rejected at the excess write.
  {
    std::ostringstream text;
    SequenceStreamWriter writer(net, text, {out}, 1);
    writer.write(p);
    EXPECT_THROW(writer.write(p), Error);
    writer.finish();
  }
}

}  // namespace
}  // namespace fmossim
