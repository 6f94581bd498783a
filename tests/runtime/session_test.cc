#include "runtime/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "runtime/epoch_manager.h"
#include "runtime/serving_loop.h"
#include "service/query_service.h"

namespace dphist::runtime {
namespace {

/// Parses one line into a fresh command.
Result<SessionCommand> ParseOne(std::string_view line,
                                std::int64_t line_number = 1) {
  SessionCommand command;
  Result<bool> parsed = ParseSessionLine(line, 64, line_number, &command);
  if (!parsed.ok()) return parsed.status();
  EXPECT_TRUE(parsed.value()) << "no command on \"" << line << "\"";
  return command;
}

Result<SessionScript> ReadScript(const std::string& text) {
  std::istringstream in(text);
  return ReadSessionScript(in, 64);
}

TEST(ParseSessionLineTest, ParsesBareRangeLikeAWorkloadFile) {
  auto command = ParseOne("3 9");
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(command.value().verb, SessionVerb::kQuery);
  ASSERT_EQ(command.value().ranges.size(), 1u);
  EXPECT_EQ(command.value().ranges[0].lo(), 3);
  EXPECT_EQ(command.value().ranges[0].hi(), 9);

  auto comma = ParseOne("3,9");
  ASSERT_TRUE(comma.ok());
  EXPECT_EQ(comma.value().ranges[0].hi(), 9);
}

TEST(ParseSessionLineTest, ParsesExplicitVerbs) {
  auto q = ParseOne("q 0 5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().verb, SessionVerb::kQuery);

  auto qb = ParseOne("qb 3 0 0 1 4 2 2");
  ASSERT_TRUE(qb.ok());
  EXPECT_EQ(qb.value().verb, SessionVerb::kBatch);
  ASSERT_EQ(qb.value().ranges.size(), 3u);
  EXPECT_EQ(qb.value().ranges[1].lo(), 1);
  EXPECT_EQ(qb.value().ranges[1].hi(), 4);

  EXPECT_EQ(ParseOne("stats").value().verb, SessionVerb::kStats);
  EXPECT_EQ(ParseOne("replan").value().verb, SessionVerb::kReplan);
  EXPECT_EQ(ParseOne("quit").value().verb, SessionVerb::kQuit);
}

TEST(ParseSessionLineTest, ErrorsCarryLineNumbersAndMatchLegacyMessages) {
  // The workload files' messages are load-bearing: CLI tests and user
  // scripts grep for them.
  auto malformed = ParseOne("7");
  EXPECT_FALSE(malformed.ok());
  EXPECT_NE(malformed.status().message().find("query line 1"),
            std::string::npos);
  EXPECT_NE(malformed.status().message().find("expected \"lo hi\""),
            std::string::npos);

  auto oob = ParseOne("5 99", 2);
  EXPECT_FALSE(oob.ok());
  EXPECT_EQ(oob.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(oob.status().message().find("line 2"), std::string::npos);

  auto unknown = ParseOne("frobnicate 1 2");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("unknown command"),
            std::string::npos);
}

TEST(ParseSessionLineTest, ValidatesBatchShape) {
  EXPECT_FALSE(ParseOne("qb 0").ok());
  EXPECT_FALSE(ParseOne("qb -3 0 0").ok());
  EXPECT_FALSE(ParseOne("qb 2 0 0").ok());  // missing second pair
  auto oversized = ParseOne("qb 99999999 0 0");
  EXPECT_FALSE(oversized.ok());
  EXPECT_NE(oversized.status().message().find("exceeds"),
            std::string::npos);
}

TEST(ParseSessionLineTest, ParsesExtractedLinesWithoutAStream) {
  // The non-blocking transport splits its receive buffer on '\n' and
  // feeds the bare lines here — same grammar, no istream.
  SessionCommand command;
  auto parsed = ParseSessionLine("q 3 9", 64, 1, &command);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value());
  EXPECT_EQ(command.verb, SessionVerb::kQuery);
  ASSERT_EQ(command.ranges.size(), 1u);
  EXPECT_EQ(command.ranges[0].lo(), 3);
  EXPECT_EQ(command.ranges[0].hi(), 9);

  // Blank and comment lines carry no command but are not errors.
  EXPECT_FALSE(ParseSessionLine("", 64, 2, &command).value());
  EXPECT_FALSE(ParseSessionLine("   ", 64, 3, &command).value());
  EXPECT_FALSE(ParseSessionLine("# note", 64, 4, &command).value());

  // A trailing '\r' (telnet-style client) is tolerated.
  auto crlf = ParseSessionLine("quit\r", 64, 5, &command);
  ASSERT_TRUE(crlf.ok());
  EXPECT_TRUE(crlf.value());
  EXPECT_EQ(command.verb, SessionVerb::kQuit);
}

TEST(ParseSessionLineTest, DiagnosticsNameTheCallersLineNumber) {
  // Errors must be byte-identical to a script's for the same line
  // number, so every front end reports identically.
  SessionCommand command;
  auto direct = ParseSessionLine("7", 64, 41, &command);
  EXPECT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("query line 41"),
            std::string::npos);

  auto oob = ParseSessionLine("5 99", 64, 2, &command);
  EXPECT_FALSE(oob.ok());
  EXPECT_EQ(oob.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(oob.status().message().find("line 2"), std::string::npos);

  auto via_script = ReadScript("\n# c\nfrobnicate 1 2\n");
  auto via_line = ParseSessionLine("frobnicate 1 2", 64, 3, &command);
  ASSERT_FALSE(via_script.ok());
  ASSERT_FALSE(via_line.ok());
  EXPECT_EQ(via_line.status().message(), via_script.status().message());
}

TEST(ParseSessionLineTest, RefillsAReusedCommand) {
  // The socket transport keeps one SessionCommand per connection: every
  // line must replace the previous command's verb and ranges, and a
  // blank or comment line must leave it alone.
  SessionCommand command;
  ASSERT_TRUE(ParseSessionLine("qb 3 0 0 1 4 2 2", 64, 1, &command).value());
  EXPECT_EQ(command.ranges.size(), 3u);
  ASSERT_TRUE(ParseSessionLine("q 5 6", 64, 2, &command).value());
  EXPECT_EQ(command.verb, SessionVerb::kQuery);
  ASSERT_EQ(command.ranges.size(), 1u);
  EXPECT_EQ(command.ranges[0].lo(), 5);
  EXPECT_FALSE(ParseSessionLine("# note", 64, 3, &command).value());
  EXPECT_EQ(command.verb, SessionVerb::kQuery);
  EXPECT_EQ(command.ranges.size(), 1u);
  ASSERT_TRUE(ParseSessionLine("stats", 64, 4, &command).value());
  EXPECT_EQ(command.verb, SessionVerb::kStats);
  EXPECT_TRUE(command.ranges.empty());
}

// ---- The stream parser as oracle ----------------------------------------
// ParseSessionLine as it was written over std::istringstream, before it
// scanned lines in place. Its field rules are operator>>'s, which the
// in-place parser must reproduce byte for byte, diagnostics included.

std::string OracleLinePrefix(std::int64_t line) {
  return "query line " + std::to_string(line) + ": ";
}

bool OracleLooksLikeInteger(const std::string& token) {
  std::size_t i = (!token.empty() && (token[0] == '-' || token[0] == '+'))
                      ? 1
                      : 0;
  if (i >= token.size()) return false;
  for (; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
  }
  return true;
}

Result<bool> OracleParseSessionLine(std::string_view line_view,
                                    std::int64_t domain_size,
                                    std::int64_t line_number,
                                    SessionCommand* out) {
  std::string line(line_view);
  for (char& c : line) {
    if (c == ',') c = ' ';
  }
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return false;  // blank
  if (line[first] == '#') return false;          // comment
  std::istringstream fields(line);
  std::string head;
  fields >> head;

  SessionCommand command;
  if (head == "stats") {
    command.verb = SessionVerb::kStats;
    *out = std::move(command);
    return true;
  }
  if (head == "replan") {
    command.verb = SessionVerb::kReplan;
    *out = std::move(command);
    return true;
  }
  if (head == "quit") {
    command.verb = SessionVerb::kQuit;
    *out = std::move(command);
    return true;
  }

  auto read_range = [&](Interval* range_out) -> Status {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    if (!(fields >> lo) || !(fields >> hi)) {
      return Status::InvalidArgument(OracleLinePrefix(line_number) +
                                     "expected \"lo hi\"");
    }
    if (lo > hi || lo < 0 || hi >= domain_size) {
      return Status::OutOfRange(OracleLinePrefix(line_number) +
                                "range out of bounds");
    }
    *range_out = Interval(lo, hi);
    return Status::Ok();
  };

  if (head == "q") {
    command.verb = SessionVerb::kQuery;
    command.ranges.resize(1, Interval(0, 0));
    Status s = read_range(&command.ranges[0]);
    if (!s.ok()) return s;
    *out = std::move(command);
    return true;
  }
  if (head == "qb") {
    std::int64_t k = 0;
    if (!(fields >> k) || k < 1) {
      return Status::InvalidArgument(OracleLinePrefix(line_number) +
                                     "qb expects a positive batch size");
    }
    if (k > kMaxSessionBatch) {
      return Status::InvalidArgument(OracleLinePrefix(line_number) +
                                     "qb batch size exceeds " +
                                     std::to_string(kMaxSessionBatch));
    }
    command.verb = SessionVerb::kBatch;
    command.ranges.resize(static_cast<std::size_t>(k), Interval(0, 0));
    for (Interval& range : command.ranges) {
      Status s = read_range(&range);
      if (!s.ok()) return s;
    }
    *out = std::move(command);
    return true;
  }
  if (OracleLooksLikeInteger(head)) {
    std::istringstream bare(line);
    fields.swap(bare);
    command.verb = SessionVerb::kQuery;
    command.ranges.resize(1, Interval(0, 0));
    Status s = read_range(&command.ranges[0]);
    if (!s.ok()) return s;
    *out = std::move(command);
    return true;
  }
  return Status::InvalidArgument("query line " + std::to_string(line_number) +
                                 ": unknown command \"" + head + "\"");
}

/// Parses `line` with both parsers (the in-place one into `reused`, a
/// command kept across calls) and returns a description of the first
/// difference, or an empty string.
std::string CompareWithOracle(std::string_view line, std::int64_t domain,
                              std::int64_t line_number,
                              SessionCommand* reused) {
  SessionCommand expected;
  const Result<bool> want =
      OracleParseSessionLine(line, domain, line_number, &expected);
  const Result<bool> got = ParseSessionLine(line, domain, line_number, reused);
  if (want.ok() != got.ok()) return "one parser failed, the other did not";
  if (!want.ok()) {
    return want.status().ToString() == got.status().ToString()
               ? ""
               : "status " + got.status().ToString() + " != " +
                     want.status().ToString();
  }
  if (want.value() != got.value()) return "blank/comment verdicts differ";
  if (!want.value()) return "";
  if (expected.verb != reused->verb) return "verbs differ";
  if (expected.ranges.size() != reused->ranges.size()) {
    return "range counts differ";
  }
  for (std::size_t i = 0; i < expected.ranges.size(); ++i) {
    if (expected.ranges[i].lo() != reused->ranges[i].lo() ||
        expected.ranges[i].hi() != reused->ranges[i].hi()) {
      return "range " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/// Printable form of a line for failure messages: bytes outside ASCII
/// print as \xHH.
std::string Escaped(std::string_view line) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (char c : line) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out.push_back(c);
    } else {
      out += "\\x";
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    }
  }
  return out;
}

TEST(ParseSessionLineOracleTest, EdgeLinesMatchTheStreamParser) {
  using namespace std::string_literals;
  const std::vector<std::string> lines = {
      "q 0 5", "3 9", "3,9", ",,3,,9,,", "+5 9", "q +5 +9", "q +-5 6",
      "q --5 6", "q -+5 6", "q -0 3", "-5 9", "q 0x10 20", "q 007 010",
      "5x 7", "q 5x 7", "q 1 5x", "q 1+2", "q 1-2", "q 1.5 2", "1e2 30",
      "q 9223372036854775807 9223372036854775807",
      "q -9223372036854775808 1", "q 0 9223372036854775808",
      "q -9223372036854775809 1", "9223372036854775808 1",
      "99999999999999999999 1", "q 0 00000000000000000000000000000000063",
      "qb 2 0 1", "qb 1 0 1 2 3", "qb 1048577 0 1", "qb 1048576 0 1",
      "qb 0", "qb -1 0 0", "qb 99999999999999999999 0 0", "qb +2 1 2 3 4",
      "qb 3x 0 0", "qb 2 5 1 x", "qb 3 1 2 3 4 5", "qb 1 2", "qb",
      "qb 9223372036854775807 0 0", "qb -9223372036854775808 0 0",
      "\t q \t 1 \t 2", "\vq 1 2", "\v", "\f3 4", "3 4\r", "\r", " , \t",
      "\n", "q\n1\n2", "stats", "stats x", "stats\r", "replan", "quit",
      "quit now", "#comment", " ,# comment", "\v# x", "\t#", "q 1 2\0"s,
      "q\0 1 2"s, "\0"s, "1\0 2"s, "q 1\0002"s, "Q 1 2", "q5 7", "qbb 1 0 0",
      "frobnicate 1 2", "-", "+", "q - 1", "q + 1", "q", "", "q 63 63",
      "q 63 64", "q 5 4", "q \xff 1", "\xff 1 2", "q 1 2 \xa0",
      "quit,stats", "qb,1,0,0", "q,,,1,,,2"};
  SessionCommand reused;
  for (const std::string& line : lines) {
    EXPECT_EQ(CompareWithOracle(line, 64, 7, &reused), "")
        << "line \"" << Escaped(line) << "\"";
  }
}

/// Draws session lines from fragments that probe every field rule:
/// verbs, typos, signs, leading zeros, hex and exponent tails, the int64
/// boundaries, every separator byte, NULs, and qb counts that are right,
/// short, long, or over the cap. (`qb 1048576` with too few ranges is in
/// the edge table only: the oracle zero-fills 16 MiB for it.)
class LineGenerator {
 public:
  explicit LineGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string Next() {
    std::string line;
    if (Chance(8)) line += Separators();
    const int shape = Pick(10);
    if (shape < 4) {
      const int declared = Pick(6);
      line += "qb";
      line += Separators(true);
      line += Chance(10) ? Number() : std::to_string(declared);
      const int given = declared + Pick(3) - 1;
      for (int i = 0; i < given; ++i) {
        line += Separators(true) + Number() + Separators(true) + Number();
      }
    } else if (shape < 6) {
      line += "q" + Separators(true) + Number() + Separators(true) +
              Number();
    } else if (shape < 8) {
      line += Number() + Separators(true) + Number();
    } else {
      static const char* const kHeads[] = {
          "stats", "replan", "quit", "#", "Q", "qbx", "frob", "", "q",
          "qb 1048577", "qb 1048577 0 1", "qb 0", "-", "+"};
      line += kHeads[Pick(sizeof(kHeads) / sizeof(kHeads[0]))];
    }
    if (Chance(4)) line += Separators() + Number();
    if (Chance(8)) line += Separators();
    return line;
  }

 private:
  int Pick(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }
  bool Chance(int one_in) { return Pick(one_in) == 0; }

  /// Zero or more separator bytes (at least one when `required`), now
  /// and then a byte that separates nothing.
  std::string Separators(bool required = false) {
    static const char kBytes[] = {' ', ' ', ' ', '\t', ',', '\v',
                                  '\f', '\r', '\n'};
    std::string out;
    int count = Pick(3) + (required ? 1 : 0);
    if (required && Chance(20)) count = 0;  // fields run together
    for (int i = 0; i < count; ++i) {
      out.push_back(kBytes[Pick(sizeof(kBytes))]);
    }
    if (Chance(50)) out.push_back('\0');
    return out;
  }

  std::string Number() {
    static const char* const kLiterals[] = {
        "+5", "+-5", "--5", "-+5", "-0", "+0", "007", "0x10", "5x", "1e3",
        "1.5", "-", "+", "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "000000000000000000000042", "\xff" "7",
        "63", "64", "1048577"};
    const int kind = Pick(10);
    if (kind < 7) return std::to_string(Pick(64));
    if (kind == 7) return std::to_string(Pick(200) - 100);
    return kLiterals[Pick(sizeof(kLiterals) / sizeof(kLiterals[0]))];
  }

  std::mt19937_64 rng_;
};

TEST(ParseSessionLineOracleTest, SeededCorpusMatchesTheStreamParser) {
  constexpr int kLines = 1 << 20;
  LineGenerator generator(20101018);
  SessionCommand reused;
  int mismatches = 0;
  for (int i = 0; i < kLines && mismatches < 10; ++i) {
    const std::string line = generator.Next();
    const std::string diff = CompareWithOracle(line, 64, i + 1, &reused);
    if (!diff.empty()) {
      ADD_FAILURE() << diff << " on line \"" << Escaped(line) << "\"";
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// ---- Answer formatting against to_chars(general, 15) ----------------------

std::string GeneralFifteen(double value) {
  char buffer[64];
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof(buffer), value, std::chars_format::general, 15);
  return std::string(buffer, result.ptr) + "\n";
}

std::string AnswerLine(double value) {
  std::string out;
  AppendAnswerLine(value, &out);
  return out;
}

TEST(AppendAnswerLineTest, EdgeValuesMatchGeneralFormatting) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {
      0.0, -0.0, 1.0, -1.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e15 + 1,
      1e15 - 0.5, 999999999999999.5, 9007199254740992.0, -9007199254740992.0,
      1e16, 1e17, 1e300, kInf, -kInf, kNaN, -kNaN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 0.5, -0.5, 1e-5, 123456789012345.0,
      1234567890123456.0, 100.0, 1e14, 2.5, 1801.365, 9.2233720368547758e18,
      -9.2233720368547758e18};
  for (double value : values) {
    EXPECT_EQ(AnswerLine(value), GeneralFifteen(value)) << value;
  }
  EXPECT_EQ(AnswerLine(-0.0), "-0\n");
  EXPECT_EQ(AnswerLine(1e15 - 1), "999999999999999\n");
  EXPECT_EQ(AnswerLine(1e15), "1e+15\n");
}

TEST(AppendAnswerLineTest, RandomValuesMatchGeneralFormatting) {
  // 10 M values: raw bit patterns (every exponent, NaN payloads and
  // subnormals included), integers of every magnitude up to 2^63, and
  // integers and near-integers about the 1e15 switch-over.
  std::mt19937_64 rng(15);
  int mismatches = 0;
  auto check = [&](double value) {
    if (mismatches >= 10) return;
    const std::string got = AnswerLine(value);
    const std::string want = GeneralFifteen(value);
    if (got != want) {
      ADD_FAILURE() << "bits " << std::hex
                    << std::bit_cast<std::uint64_t>(value) << ": " << got
                    << " != " << want;
      ++mismatches;
    }
  };
  for (int i = 0; i < 4'000'000; ++i) {
    check(std::bit_cast<double>(rng()));
  }
  for (int i = 0; i < 4'000'000; ++i) {
    // A random integer of a random bit length, either sign.
    const std::uint64_t bits = rng();
    const int length = static_cast<int>(bits % 64);
    const auto magnitude =
        static_cast<std::int64_t>((rng() >> 1) >> (63 - length));
    check(static_cast<double>((bits & 64) != 0 ? -magnitude : magnitude));
  }
  for (int i = 0; i < 2'000'000; ++i) {
    const double step = static_cast<double>(rng() % 4) * 0.25;
    const double near = 1e15 - 1000.0 + static_cast<double>(rng() % 2000);
    check(((rng() & 1) != 0 ? -1.0 : 1.0) * (near + step));
  }
  EXPECT_EQ(mismatches, 0);
}

/// A script's steps as text: the verb's letter, the first range and
/// the count, one "v<first>+<count> " per step.
std::string Layout(const SessionScript& script) {
  std::string out;
  for (const SessionStep& step : script.steps) {
    switch (step.verb) {
      case SessionVerb::kQuery: out += 'q'; break;
      case SessionVerb::kBatch: out += 'b'; break;
      case SessionVerb::kStats: out += 's'; break;
      case SessionVerb::kReplan: out += 'r'; break;
      case SessionVerb::kQuit: out += 'x'; break;
    }
    out += std::to_string(step.first) + "+" + std::to_string(step.count) +
           " ";
  }
  return out;
}

TEST(SessionScriptTest, ReadsWholeScriptsIntoOneRangeArray) {
  auto script = ReadScript("0 5\nqb 2 0 0 1 1\nstats\nreplan\n");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(Layout(script.value()), "q0+1 b1+2 s3+0 r3+0 ");
  const std::vector<Interval>& ranges = script.value().ranges;
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].hi(), 5);
  EXPECT_EQ(ranges[2].lo(), 1);
  EXPECT_EQ(ranges[2].hi(), 1);
}

TEST(SessionScriptTest, OnlyNonQueryCommandsSplitARun) {
  // Comments and blank lines carry no command, so the single-range
  // lines around them stay one step, answered as one batch.
  auto script = ReadScript(
      "0 5\n# note\n\n q 1 2\n3,4\nstats\n5 6\nreplan\n7 7\n \n8 8\n");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(Layout(script.value()), "q0+3 s3+0 q3+1 r4+0 q4+2 ");
  EXPECT_EQ(script.value().ranges.size(), 6u);
}

TEST(SessionScriptTest, ABatchIsAStepOfItsOwn) {
  // A `qb` line is counted and receipted as a batch, so it never merges
  // with the single-range lines or the `qb` beside it.
  auto script = ReadScript("0 5\nqb 2 1 1 2 2\nqb 1 3 3\n4 4\n");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(Layout(script.value()), "q0+1 b1+2 b3+1 q4+1 ");
}

TEST(SessionScriptTest, QuitTruncatesTheScript) {
  // Nothing after `quit` is read, not even a malformed line.
  auto script = ReadScript("0 1\nquit\nbogus\n2 3\n");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(Layout(script.value()), "q0+1 ");
  EXPECT_EQ(script.value().ranges.size(), 1u);

  for (const char* empty : {"", "quit\n0 1\n", "# only a comment\n"}) {
    auto nothing = ReadScript(empty);
    ASSERT_TRUE(nothing.ok());
    EXPECT_TRUE(nothing.value().steps.empty()) << empty;
    EXPECT_TRUE(nothing.value().ranges.empty()) << empty;
  }
}

TEST(SessionScriptTest, PropagatesTheFirstError) {
  auto script = ReadScript("0 5\nxx 1\n");
  EXPECT_FALSE(script.ok());
  EXPECT_NE(script.status().message().find("line 2"), std::string::npos);

  // Blank and comment lines still count toward the line number.
  auto numbered = ReadScript("\n# a comment\n   \n0 5\n5 99\n");
  EXPECT_FALSE(numbered.ok());
  EXPECT_EQ(numbered.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(numbered.status().message().find("query line 5:"),
            std::string::npos);
}

/// A service over 64 positions with a manager that replans inline.
class SessionExecutorTest : public ::testing::Test {
 protected:
  SessionExecutorTest()
      : data_(Histogram::FromCounts(ZipfCounts(64, 1.3, 384, &data_rng_))),
        manager_(&service_, data_, ManagerOptions(), 7) {}

  static EpochManagerOptions ManagerOptions() {
    EpochManagerOptions options;
    options.base.strategy = StrategyKind::kLTilde;
    options.async = false;
    return options;
  }

  std::string Answer(std::int64_t lo, std::int64_t hi) {
    std::string line;
    AppendAnswerLine(service_.snapshot()->RangeCount(Interval(lo, hi)), &line);
    return line;
  }

  Rng data_rng_{23};
  Histogram data_;
  QueryService service_;
  EpochManager manager_;
};

TEST_F(SessionExecutorTest, ExecuteLineReportsABadLineAndKeepsServing) {
  // The REPL and a socket connection share this path: a malformed line
  // and a failed command each print one "error:" line naming the
  // caller's line number, blank lines print nothing, and `quit` ends
  // the session without executing.
  ASSERT_TRUE(manager_.PublishInitial().ok());
  std::string text;
  SessionWriter writer(&text);
  SessionExecutor executor(writer, service_, manager_);
  EXPECT_TRUE(executor.ExecuteLine("bogus", 1));
  EXPECT_TRUE(executor.ExecuteLine("", 2));
  EXPECT_TRUE(executor.ExecuteLine("# note", 3));
  EXPECT_TRUE(executor.ExecuteLine("q 1 2", 4));
  EXPECT_TRUE(executor.ExecuteLine("q 1 99", 5));
  EXPECT_TRUE(executor.ExecuteLine("qb 2 0 0 3,9", 6));
  EXPECT_FALSE(executor.ExecuteLine("quit", 7));
  EXPECT_EQ(text,
            "error: InvalidArgument: query line 1: unknown command "
            "\"bogus\"\n" +
                Answer(1, 2) +
                "error: OutOfRange: query line 5: range out of bounds\n" +
                Answer(0, 0) + Answer(3, 9) + "# batch n=2 epoch=1\n");
  EXPECT_EQ(executor.summary().queries, 3u);
  EXPECT_EQ(executor.summary().batches, 1u);
}

/// An output buffer that counts flushes (sync calls).
class CountingSyncBuf : public std::stringbuf {
 public:
  int syncs = 0;

 protected:
  int sync() override {
    ++syncs;
    return std::stringbuf::sync();
  }
};

/// An input buffer that yields one line per read, as a terminal does:
/// nothing beyond the current line is ever buffered.
class LinePerReadBuf : public std::streambuf {
 public:
  explicit LinePerReadBuf(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}

 protected:
  int_type underflow() override {
    if (next_ == lines_.size()) return traits_type::eof();
    std::string& line = lines_[next_++];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(line[0]);
  }

 private:
  std::vector<std::string> lines_;  // each ends in '\n'
  std::size_t next_ = 0;
};

TEST_F(SessionExecutorTest, StreamingSessionFlushesWhenItsInputIsDrained) {
  ASSERT_TRUE(manager_.PublishInitial().ok());
  // Piped input: 10 000 buffered lines flush when the buffer drains and
  // once at the end, not once per line.
  std::string piped;
  for (int i = 0; i < 10000; ++i) {
    piped += std::to_string(i % 64) + " " + std::to_string(i % 64) + "\n";
  }
  std::istringstream in(piped);
  CountingSyncBuf out_buf;
  std::ostream out(&out_buf);
  // Tied as std::cin is to std::cout; the tie is restored afterwards.
  in.tie(&out);
  SessionWriter writer(out);
  auto summary = RunStreamingSession(in, writer, service_, manager_);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().queries, 10000u);
  EXPECT_LE(out_buf.syncs, 2);
  EXPECT_EQ(in.tie(), &out);
  const std::string piped_out = out_buf.str();
  EXPECT_EQ(std::count(piped_out.begin(), piped_out.end(), '\n'), 10000);

  // A terminal: every line's answer is flushed before the next read
  // (one flush per line, plus the one at the end).
  LinePerReadBuf tty_buf({"q 0 1\n", "q 2 3\n", "q 4 5\n"});
  std::istream tty(&tty_buf);
  CountingSyncBuf tty_out_buf;
  std::ostream tty_out(&tty_out_buf);
  SessionWriter tty_writer(tty_out);
  ASSERT_TRUE(RunStreamingSession(tty, tty_writer, service_, manager_).ok());
  EXPECT_EQ(tty_out_buf.syncs, 4);
}

TEST(SessionWriterTest, FormatsAnswersAndReports) {
  std::ostringstream out;
  SessionWriter writer(out);
  const double answers[] = {1234567.0, 2.5};
  writer.Answers(answers, 2);
  writer.BatchReceipt(2, 7);
  writer.Comment("hello");
  writer.ServedReceipt(3, 7);
  writer.Error("InvalidArgument: bad");
  EXPECT_EQ(out.str(),
            "1234567\n2.5\n# batch n=2 epoch=7\n# hello\n"
            "# served 3 queries from epoch 7\n"
            "error: InvalidArgument: bad\n");
}

TEST(SessionWriterTest, StreamFormWritesThroughEveryCall) {
  // perfbench's replay and the stdin REPL interleave their own stream
  // writes with the writer's and never rely on Flush for ordering.
  std::ostringstream out;
  SessionWriter writer(out);
  const double answer = 3.0;
  writer.Answers(&answer, 1);
  EXPECT_EQ(out.str(), "3\n");
  out << "between\n";
  writer.BatchReceipt(1, 2);
  EXPECT_EQ(out.str(), "3\nbetween\n# batch n=1 epoch=2\n");
  out.str(std::string());
  writer.Comment("c");
  EXPECT_EQ(out.str(), "# c\n");
}

TEST(SessionWriterTest, StringFormAppendsTheStreamFormsBytes) {
  std::string text = "kept ";
  SessionWriter to_string(&text);
  std::ostringstream stream;
  SessionWriter to_stream(stream);
  const double answers[] = {0.0, -0.0, 42.0, 1801.365, 1e15, -7.0};
  const double variances[] = {128.545,
                              0.0,
                              1e-7,
                              123456789.0,
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()};
  for (SessionWriter* writer : {&to_string, &to_stream}) {
    writer->Answers(answers, 6);
    writer->BatchReceipt(6, 18446744073709551615u);
    for (double variance : variances) {
      writer->PlanNote("wavelet", 2, 3, "every", variance);
    }
    writer->ServedReceipt(6, 3);
    writer->Error("OutOfRange: range out of bounds");
    writer->Flush();
  }
  EXPECT_EQ(text, "kept " + stream.str());

  // PlanNote's variance prints as a precision-6 ostream did.
  std::ostringstream legacy;
  legacy.precision(6);
  for (double variance : variances) {
    legacy << "# planned strategy=wavelet shards=2 epoch=3 reason=every"
           << " predicted_mean_var=" << variance << "\n";
  }
  EXPECT_NE(stream.str().find(legacy.str()), std::string::npos)
      << stream.str() << "\nwanted\n" << legacy.str();
}

}  // namespace
}  // namespace dphist::runtime
