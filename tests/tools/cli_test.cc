#include "tools/cli_commands.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/csv.h"
#include "engine/answer_engine.h"
#include "runtime/transport.h"

namespace dphist::cli {
namespace {

int RunMainWithInput(const std::string& input,
                     const std::vector<const char*>& args,
                     std::string* out_text, std::string* err_text) {
  std::vector<const char*> argv = {"dphist_cli"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::istringstream in(input);
  std::ostringstream out, err;
  int code = Main(static_cast<int>(argv.size()), argv.data(), in, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

int RunMain(std::initializer_list<const char*> args, std::string* out_text,
            std::string* err_text) {
  return RunMainWithInput("", args, out_text, err_text);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliTest, NoCommandPrintsUsage) {
  std::string out, err;
  EXPECT_EQ(RunMain({}, &out, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string out, err;
  EXPECT_EQ(RunMain({"frobnicate"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(CliTest, UsageFollowsOnlyCommandLineErrors) {
  // An unknown command, an unknown flag and a missing required flag are
  // mistakes in the command line: the usage text follows the error.
  std::string out, err;
  EXPECT_EQ(RunMain({"frobnicate"}, &out, &err), 1);
  EXPECT_EQ(err.rfind("error: InvalidArgument: unknown command: frobnicate\n"
                      "usage: dphist_cli",
                      0),
            0u)
      << err;
  // dphist_lint is the one linter driver: `lint` is no command.
  EXPECT_EQ(RunMain({"lint", "--root", DPHIST_SOURCE_DIR}, &out, &err), 1);
  EXPECT_EQ(out, "");
  EXPECT_EQ(err.rfind("error: InvalidArgument: unknown command: lint\n"
                      "usage: dphist_cli",
                      0),
            0u)
      << err;
  EXPECT_EQ(RunMain({"serve", "--bogus", "1"}, &out, &err), 1);
  EXPECT_EQ(err.rfind("error: InvalidArgument: unknown flag --bogus\n"
                      "usage: dphist_cli",
                      0),
            0u)
      << err;
  EXPECT_EQ(RunMain({"plan", "--epsilon", "1", "--domain", "16"}, &out, &err),
            1);
  EXPECT_NE(err.find("missing required flag --queries\nusage:"),
            std::string::npos)
      << err;

  // A malformed workload file is a data error: one line, no usage.
  const std::string path = TempPath("cli_bad_workload.txt");
  {
    std::ofstream file(path);
    file << "0 5\nabc\n";
  }
  EXPECT_EQ(RunMain({"plan", "--queries", path.c_str(), "--epsilon", "1",
                     "--domain", "16"},
                    &out, &err),
            1);
  EXPECT_EQ(err,
            "error: InvalidArgument: query line 2: unknown command "
            "\"abc\"\n");
}

TEST(CliTest, UsageNamesOnlyFlagsItsCommandReads) {
  // Every --flag in a command's usage block must pass that command's
  // flag check. Flags keeps names in a std::map, so beside the sentinel
  // --zzz a known flag leaves --zzz the first unknown name, while an
  // unknown one would be named itself. The check runs before anything
  // else, so no command reads, writes, binds or publishes here.
  std::string usage;
  ASSERT_EQ(RunMain({}, nullptr, &usage), 2);
  std::map<std::string, std::set<std::string>> flags_by_command;
  std::istringstream text(usage);
  std::string line;
  std::string command;
  while (std::getline(text, line)) {
    if (line.size() > 2 && line.starts_with("  ") && line[2] != ' ') {
      command = line.substr(2, line.find(' ', 2) - 2);
    } else if (!line.starts_with("    ")) {
      command.clear();  // the header, a blank line or the closing prose
    }
    if (command.empty()) continue;
    for (std::size_t at = line.find("--"); at != std::string::npos;
         at = line.find("--", at + 2)) {
      std::size_t end = at + 2;
      while (end < line.size() &&
             (std::islower(static_cast<unsigned char>(line[end])) != 0 ||
              line[end] == '-')) {
        ++end;
      }
      flags_by_command[command].insert(line.substr(at, end - at));
    }
  }
  ASSERT_EQ(flags_by_command.size(), 8u) << usage;
  for (const auto& [name, flags] : flags_by_command) {
    for (const std::string& flag : flags) {
      SCOPED_TRACE(name + " " + flag);
      std::string out, err;
      EXPECT_EQ(RunMainWithInput("", {name.c_str(), flag.c_str(), "--zzz"},
                                 &out, &err),
                1);
      EXPECT_EQ(out, "");
      EXPECT_EQ(err.rfind("error: InvalidArgument: unknown flag --zzz\n", 0),
                0u)
          << err;
    }
  }

  // Knobs that no workload, script or CI step set are not flags: each
  // fails as unknown, with the usage text after it.
  const std::vector<std::vector<const char*>> retired = {
      {"serve", "--reservoir", "8"},
      {"serve", "--drift-check-every", "8"},
      {"serve", "--objective", "mean"},
      {"plan", "--objective", "worst"}};
  for (const std::vector<const char*>& args : retired) {
    SCOPED_TRACE(std::string(args[0]) + " " + args[1]);
    std::string out, err;
    EXPECT_EQ(RunMainWithInput("", args, &out, &err), 1);
    EXPECT_EQ(err, "error: InvalidArgument: unknown flag " +
                       std::string(args[1]) + "\n" + usage);
  }
}

TEST(CliTest, MissingFlagsReported) {
  std::string out, err;
  EXPECT_EQ(RunMain({"generate", "--dataset", "social"}, &out, &err), 1);
  EXPECT_NE(err.find("--output"), std::string::npos);
}

TEST(CliTest, GenerateRejectsUnknownDataset) {
  std::string out, err;
  std::string path = TempPath("cli_unknown.csv");
  EXPECT_EQ(RunMain({"generate", "--dataset", "mars", "--output",
                     path.c_str()},
                    &out, &err),
            1);
  EXPECT_NE(err.find("unknown dataset"), std::string::npos);
}

TEST(CliTest, FullPipelineGenerateReleaseQuery) {
  std::string data_path = TempPath("cli_data.csv");
  std::string release_path = TempPath("cli_release.csv");
  std::string out, err;

  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "300"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("wrote 300 counts"), std::string::npos);

  ASSERT_EQ(RunMain({"release-universal", "--input", data_path.c_str(),
                     "--output", release_path.c_str(), "--epsilon", "0.5"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("released eps=0.5"), std::string::npos);

  // The release is loadable and queryable.
  auto release = LoadHistogramCsv(release_path);
  ASSERT_TRUE(release.ok());
  EXPECT_EQ(release.value().size(), 300);

  ASSERT_EQ(RunMain({"query", "--release", release_path.c_str(), "--lo",
                     "0", "--hi", "299"},
                    &out, &err),
            0)
      << err;
  double total = std::strtod(out.c_str(), nullptr);
  // Degree total of the synthetic graph is ~2 * 3.98 * 300; the eps=0.5
  // release should land in the right ballpark.
  EXPECT_GT(total, 500.0);
  EXPECT_LT(total, 5000.0);

  std::remove(data_path.c_str());
  std::remove(release_path.c_str());
}

TEST(CliTest, ReleaseSortedRoundTrip) {
  std::string data_path = TempPath("cli_sorted_data.csv");
  std::string release_path = TempPath("cli_sorted_release.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "nettrace", "--output",
                     data_path.c_str(), "--size", "512"},
                    &out, &err),
            0)
      << err;
  ASSERT_EQ(RunMain({"release-sorted", "--input", data_path.c_str(),
                     "--output", release_path.c_str(), "--epsilon", "1.0"},
                    &out, &err),
            0)
      << err;
  auto release = LoadHistogramCsv(release_path);
  ASSERT_TRUE(release.ok());
  // S-bar output is sorted ascending.
  const auto& counts = release.value().counts();
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i] + 1e-9, counts[i - 1]);
  }
  std::remove(data_path.c_str());
  std::remove(release_path.c_str());
}

TEST(CliTest, ReleaseUniversalValidatesParameters) {
  std::string data_path = TempPath("cli_param_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "100"},
                    &out, &err),
            0);
  EXPECT_EQ(RunMain({"release-universal", "--input", data_path.c_str(),
                     "--output", TempPath("x.csv").c_str(), "--epsilon",
                     "-1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("epsilon"), std::string::npos);
  EXPECT_EQ(RunMain({"release-universal", "--input", data_path.c_str(),
                     "--output", TempPath("x.csv").c_str(), "--epsilon",
                     "1", "--branching", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("branching"), std::string::npos);
  std::remove(data_path.c_str());
}

TEST(CliTest, QueryValidatesBounds) {
  std::string release_path = TempPath("cli_bounds.csv");
  {
    Histogram h({1.0, 2.0, 3.0});
    ASSERT_TRUE(SaveHistogramCsv(h, release_path).ok());
  }
  std::string out, err;
  EXPECT_EQ(RunMain({"query", "--release", release_path.c_str(), "--lo",
                     "2", "--hi", "5"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("out of bounds"), std::string::npos);
  EXPECT_EQ(RunMain({"query", "--release", release_path.c_str(), "--lo",
                     "0", "--hi", "2"},
                    &out, &err),
            0);
  EXPECT_EQ(std::strtod(out.c_str(), nullptr), 6.0);
  std::remove(release_path.c_str());
}

TEST(CliTest, ServeAnswersWorkloadFile) {
  std::string data_path = TempPath("cli_serve_data.csv");
  std::string queries_path = TempPath("cli_serve_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "200"},
                    &out, &err),
            0)
      << err;
  {
    std::ofstream queries(queries_path);
    queries << "0 199\n"        // full domain
            << "5,9\n"          // comma form
            << "\n"             // blank lines are skipped
            << "0 199\n";       // repeat
  }

  ASSERT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1.0", "--strategy",
                     "htilde", "--shards", "2"},
                    &out, &err),
            0)
      << err;
  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), 4u);  // 3 answers + stats comment
  // Identical queries get identical answers (one snapshot).
  EXPECT_EQ(rows[0], rows[2]);
  EXPECT_NE(rows[3].find("# served 3 queries from epoch 1"),
            std::string::npos);
  EXPECT_NE(rows[3].find("htilde"), std::string::npos);

  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(CliTest, ServeValidatesQueriesAndFlags) {
  std::string data_path = TempPath("cli_serve_bad_data.csv");
  std::string queries_path = TempPath("cli_serve_bad_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "50"},
                    &out, &err),
            0);

  // Unknown strategy.
  { std::ofstream q(queries_path); q << "0 10\n"; }
  EXPECT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1", "--strategy",
                     "fourier"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("unknown strategy"), std::string::npos);

  // Out-of-bounds query line.
  { std::ofstream q(queries_path); q << "0 10\n10 50\n"; }
  EXPECT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("line 2"), std::string::npos);

  // Malformed query line.
  { std::ofstream q(queries_path); q << "7\n"; }
  EXPECT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("expected \"lo hi\""), std::string::npos);

  // A non-numeric first token is an error too, never silently skipped
  // (skipping would misalign answers with input lines).
  { std::ofstream q(queries_path); q << "xx 50\n0 10\n"; }
  EXPECT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("line 1"), std::string::npos);

  // Missing query file.
  EXPECT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     TempPath("nope_queries.txt").c_str(), "--epsilon", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("cannot open"), std::string::npos);

  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(CliTest, ServeRejectsFlagsItDoesNotRead) {
  std::string data_path = TempPath("cli_unknown_flag_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "64"},
                    &out, &err),
            0);
  // Ignoring any of these would serve at the default epsilon, with no
  // budget, unauthenticated, or as if a removed knob (the answer cache,
  // the dense cost oracle, the file-mode thread fan-out, the kernel
  // override flag) still applied.
  const char* const misspelt[][2] = {{"--eps", "0.1"},
                                     {"--epsilon_budget", "2"},
                                     {"--auth_token", "T"},
                                     {"--cache", "65536"},
                                     {"--dense-oracle", "1"},
                                     {"--max-analyzer-width", "16"},
                                     {"--threads", "2"},
                                     {"--kernel", "auto"}};
  for (const auto& [flag, value] : misspelt) {
    SCOPED_TRACE(flag);
    // Were the flag accepted, serve would bind, print "# listening" and
    // exit 0 at the empty stdin.
    EXPECT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--epsilon",
                       "1", "--listen", "0", flag, value},
                      &out, &err),
              1);
    EXPECT_EQ(out, "");  // refused before any publish or bind
    EXPECT_NE(err.find(std::string("error: InvalidArgument: unknown flag ") +
                       flag + "\n"),
              std::string::npos)
        << err;
  }
  std::remove(data_path.c_str());
}

TEST(CliTest, EveryCommandChecksItsFlagsFirst) {
  // The check runs before anything else, so an unknown flag is reported
  // even when every required flag is missing too.
  for (const char* command : {"generate", "release-universal",
                              "release-sorted", "query", "serve", "client",
                              "plan", "recover"}) {
    SCOPED_TRACE(command);
    std::string out, err;
    EXPECT_EQ(RunMain({command, "--bogus", "1"}, &out, &err), 1);
    EXPECT_NE(err.find("unknown flag --bogus"), std::string::npos) << err;
  }
}

TEST(CliTest, MalformedFlagValuesAreRefusedBeforeAnyEffect) {
  // A numeric flag must parse whole, and a boolean flag must be one of
  // its spellings. Truncating "abc" to 0 or "2x" to 2, or reading "on"
  // as false, would bind an ephemeral port or serve at settings nobody
  // asked for, so each row must fail naming its flag, before any
  // publish, bind, read or write.
  const std::string data_path = TempPath("cli_malformed_data.csv");
  const std::string out_path = TempPath("cli_malformed_out.csv");
  const std::string state_dir = TempPath("cli_malformed_state");
  const std::string queries_path = TempPath("cli_malformed_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "64"},
                    &out, &err),
            0)
      << err;
  std::remove(out_path.c_str());
  std::filesystem::remove_all(state_dir);
  const char* data = data_path.c_str();
  const char* output = out_path.c_str();
  struct Row {
    std::vector<const char*> args;
    const char* flag;
  };
  const Row rows[] = {
      {{"serve", "--input", data, "--epsilon", "1", "--listen", "abc"},
       "--listen"},
      {{"serve", "--input", data, "--epsilon", "1x", "--listen", "0"},
       "--epsilon"},
      {{"serve", "--input", data, "--epsilon", "1", "--listen", "0",
        "--shards", "2x"},
       "--shards"},
      {{"serve", "--input", data, "--epsilon", "1", "--listen", "0",
        "--state-dir", state_dir.c_str(), "--seed", "99999999999999999999"},
       "--seed"},
      {{"serve", "--input", data, "--epsilon", "1", "--listen", "0",
        "--epsilon-budget", "nan"},
       "--epsilon-budget"},
      {{"generate", "--dataset", "social", "--output", output, "--size",
        "5x"},
       "--size"},
      {{"release-universal", "--input", data, "--output", output,
        "--epsilon", "1e999"},
       "--epsilon"},
      {{"release-sorted", "--input", data, "--output", output, "--epsilon",
        "1", "--seed", "-"},
       "--seed"},
      {{"query", "--release", data, "--lo", "0", "--hi", "3.5"}, "--hi"},
      {{"plan", "--queries", queries_path.c_str(), "--domain", "64",
        "--epsilon", "1", "--max-shards", "8x"},
       "--max-shards"},
      {{"client", "--port", "80x"}, "--port"},
      {{"serve", "--input", data, "--epsilon", "1", "--listen", "0",
        "--no-round=on"},
       "--no-round"},
      {{"recover", "--state-dir", state_dir.c_str(), "--inspect=maybe"},
       "--inspect"},
      {{"client", "--port", "1", "--binary=2"}, "--binary"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.args[0]) + " " + row.flag);
    EXPECT_EQ(RunMainWithInput("", row.args, &out, &err), 1);
    EXPECT_EQ(out, "");
    EXPECT_NE(err.find(std::string("error: InvalidArgument: ") + row.flag +
                       ": "),
              std::string::npos)
        << err;
  }
  EXPECT_FALSE(std::filesystem::exists(out_path));
  EXPECT_FALSE(std::filesystem::exists(state_dir));
  std::remove(data_path.c_str());
}

TEST(CliTest, AbsurdBranchingIsRefusedBeforeAnyEffect) {
  // A branching far beyond the domain pads each shard's tree to
  // branching leaves. serve, plan and release-universal share the one
  // release gate, so each refuses it as an InvalidArgument before it
  // plans, opens a state directory or writes a file, instead of dying
  // in an allocation that cannot succeed.
  const std::string data_path = TempPath("cli_branching_data.csv");
  const std::string out_path = TempPath("cli_branching_out.csv");
  const std::string state_dir = TempPath("cli_branching_state");
  const std::string queries_path = TempPath("cli_branching_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "5000"},
                    &out, &err),
            0)
      << err;
  { std::ofstream queries(queries_path); queries << "0 9\n0 4999\n"; }
  std::remove(out_path.c_str());
  std::filesystem::remove_all(state_dir);
  const char* data = data_path.c_str();
  const char* k = "1099511627776";  // 2^40
  const std::vector<std::vector<const char*>> rows = {
      {"serve", "--input", data, "--stdin", "--epsilon", "1", "--branching",
       k, "--strategy", "hbar", "--state-dir", state_dir.c_str()},
      {"serve", "--input", data, "--stdin", "--epsilon", "1", "--branching",
       k, "--strategy", "auto", "--state-dir", state_dir.c_str()},
      {"plan", "--queries", queries_path.c_str(), "--input", data,
       "--epsilon", "1", "--branching", k},
      {"release-universal", "--input", data, "--output", out_path.c_str(),
       "--epsilon", "1", "--branching", k},
  };
  for (const std::vector<const char*>& args : rows) {
    SCOPED_TRACE(std::string(args[0]) + " " + args[args.size() - 1]);
    EXPECT_EQ(RunMainWithInput("quit\n", args, &out, &err), 1);
    EXPECT_EQ(out, "");
    EXPECT_NE(err.find("error: InvalidArgument: branching 1099511627776 "
                       "over shards of width 5000"),
              std::string::npos)
        << err;
  }
  EXPECT_FALSE(std::filesystem::exists(state_dir));
  EXPECT_FALSE(std::filesystem::exists(out_path));
  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(CliTest, PlanGoldenOutput) {
  // Golden regression for `dphist plan`: L~ and H~ costs are exact
  // rational closed forms (no linear algebra), so this table must
  // reproduce byte for byte on every platform. The workload mixes a
  // unit count, a short aligned range, and the full domain.
  std::string queries_path = TempPath("cli_plan_gold.txt");
  {
    std::ofstream queries(queries_path);
    queries << "0 0\n8 15\n0 31\n";
  }
  std::string out, err;
  ASSERT_EQ(RunMain({"plan", "--queries", queries_path.c_str(), "--domain",
                     "32", "--epsilon", "1", "--strategies",
                     "ltilde,htilde", "--max-shards", "4"},
                    &out, &err),
            0)
      << err;
  EXPECT_EQ(out,
            "# workload: 3 queries over domain 32 (3 distinct lengths)\n"
            "strategy shards       mean_var      worst_var  note\n"
            "ltilde        1        27.3333             64\n"
            "ltilde        2        27.3333             64\n"
            "ltilde        4        27.3333             64\n"
            "htilde        4        82.6667            128\n"
            "htilde        2        95.8333            200\n"
            "htilde        1            114            288\n"
            "plan: strategy=ltilde shards=1 mean_var=27.3333 "
            "worst_var=64\n");
  std::remove(queries_path.c_str());
}

TEST(CliTest, PlanReadsQueryFilesWithTheSessionGrammar) {
  // `plan --queries` reads the file `serve --queries` answers, with the
  // same parser: comments and session verbs are accepted (a `qb` line's
  // ranges join the workload, `quit` ends it), and every diagnostic is
  // the one `serve` prints for the same file.
  const std::string queries_path = TempPath("cli_plan_grammar.txt");
  const std::string missing_path = TempPath("cli_plan_missing.txt");
  std::remove(missing_path.c_str());
  struct Row {
    const char* file;  // null: the file does not exist
    int exit_code;
    const char* expected;  // in stdout on success, stderr on failure
  };
  const Row rows[] = {
      {"0 9\n5,14\n\n63 63\n", 0,
       "# workload: 3 queries over domain 64 (2 distinct lengths)\n"},
      {"# a comment\n0 9\n5,14\n\n63 63\n", 0,
       "# workload: 3 queries over domain 64 (2 distinct lengths)\n"},
      {"q 0 9\nqb 2 5 14 63 63\nstats\nreplan\nquit\n0 0\n", 0,
       "# workload: 3 queries over domain 64 (2 distinct lengths)\n"},
      {"0 9\n9 100\n", 1,
       "error: OutOfRange: query line 2: range out of bounds\n"},
      {"7\n", 1, "error: InvalidArgument: query line 1: expected \"lo hi\"\n"},
      {"0 9\nabc\n", 1,
       "error: InvalidArgument: query line 2: unknown command \"abc\"\n"},
      {nullptr, 1, "error: IoError: cannot open query file: "},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.file != nullptr ? row.file : "(missing)");
    if (row.file != nullptr) {
      std::ofstream queries(queries_path);
      queries << row.file;
    }
    const std::string path = row.file != nullptr ? queries_path : missing_path;
    std::string out, err;
    EXPECT_EQ(RunMain({"plan", "--queries", path.c_str(), "--domain", "64",
                       "--epsilon", "1", "--strategies", "ltilde",
                       "--max-shards", "1"},
                      &out, &err),
              row.exit_code);
    const std::string& text = row.exit_code == 0 ? out : err;
    EXPECT_NE(text.find(row.expected), std::string::npos) << text;
  }
  std::remove(queries_path.c_str());
}

TEST(CliTest, PlanValidatesFlags) {
  std::string queries_path = TempPath("cli_plan_bad.txt");
  { std::ofstream queries(queries_path); queries << "0 1\n"; }
  std::string out, err;
  // Needs a domain source.
  EXPECT_EQ(RunMain({"plan", "--queries", queries_path.c_str(),
                     "--epsilon", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("--input"), std::string::npos);
  // auto is a request to plan, not a candidate.
  EXPECT_EQ(RunMain({"plan", "--queries", queries_path.c_str(), "--domain",
                     "8", "--epsilon", "1", "--strategies", "auto"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("auto"), std::string::npos);
  // Strategy typos surface the parse error.
  EXPECT_EQ(RunMain({"plan", "--queries", queries_path.c_str(), "--domain",
                     "8", "--epsilon", "1", "--strategies", "fourier"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("unknown strategy"), std::string::npos);
  // plan has no dense-oracle knobs: passing one is an error, not a no-op.
  for (const char* flag : {"--dense-oracle", "--max-analyzer-width"}) {
    EXPECT_EQ(RunMain({"plan", "--queries", queries_path.c_str(), "--domain",
                       "8", "--epsilon", "1", flag, "16"},
                      &out, &err),
              1);
    EXPECT_NE(err.find(std::string("unknown flag ") + flag), std::string::npos)
        << err;
  }
  std::remove(queries_path.c_str());
}

TEST(CliTest, ServeAutoPicksLTildeForUnitWorkload) {
  std::string data_path = TempPath("cli_auto_unit_data.csv");
  std::string queries_path = TempPath("cli_auto_unit_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "256"},
                    &out, &err),
            0)
      << err;
  {
    std::ofstream queries(queries_path);
    for (int i = 0; i < 64; ++i) queries << i << " " << i << "\n";
  }
  ASSERT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1", "--strategy",
                     "auto"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("# planned strategy=ltilde"), std::string::npos)
      << out;
  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(CliTest, ServeAutoPicksAHierarchyForLongRangeWorkload) {
  std::string data_path = TempPath("cli_auto_long_data.csv");
  std::string queries_path = TempPath("cli_auto_long_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "256"},
                    &out, &err),
            0)
      << err;
  {
    std::ofstream queries(queries_path);
    queries << "0 127\n0 255\n64 255\n32 159\n";
  }
  ASSERT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1", "--strategy",
                     "auto"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("# planned strategy="), std::string::npos) << out;
  EXPECT_EQ(out.find("# planned strategy=ltilde"), std::string::npos)
      << "long ranges must resolve to a hierarchical strategy\n"
      << out;
  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

// The acceptance-criterion transcript: a scripted streaming session
// whose unit-count traffic crosses the every-N replan trigger must
// demonstrably switch strategy — the transcript carries the new
// "# planned strategy=" line — while every batch is answered under one
// epoch (the "# batch ... epoch=" receipts).
TEST(CliTest, ServeStdinCrossingReplanTriggerSwitchesStrategy) {
  std::string data_path = TempPath("cli_stdin_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "256"},
                    &out, &err),
            0)
      << err;

  // 5 batches of 8 unit queries; the 4th crosses --replan-every 32.
  std::string script;
  for (int b = 0; b < 5; ++b) {
    script += "qb 8";
    for (int i = 0; i < 8; ++i) {
      script += " " + std::to_string(8 * b + i) + " " +
                std::to_string(8 * b + i);
    }
    script += "\n";
  }
  script += "stats\nquit\n";

  ASSERT_EQ(RunMainWithInput(
                script,
                {"serve", "--input", data_path.c_str(), "--stdin",
                 "--epsilon", "1", "--strategy", "auto", "--replan-every",
                 "32", "--replan-sync"},
                &out, &err),
            0)
      << err;

  // Banner, then the initial plan against the neutral prior (which must
  // not be L~ — the sweep contains long ranges).
  EXPECT_NE(out.find("# serving n=256 epoch=1"), std::string::npos) << out;
  EXPECT_NE(out.find("reason=initial"), std::string::npos) << out;
  // The observed unit traffic crossed the trigger and switched to L~.
  EXPECT_NE(out.find("# planned strategy=ltilde"), std::string::npos)
      << out;
  EXPECT_NE(out.find("reason=every"), std::string::npos) << out;
  // Single-epoch receipts for every batch, before and after the swap.
  EXPECT_NE(out.find("# batch n=8 epoch=1"), std::string::npos) << out;
  EXPECT_NE(out.find("# batch n=8 epoch=2"), std::string::npos) << out;
  // The stats surface reports the lifecycle.
  EXPECT_NE(out.find("replans=1"), std::string::npos) << out;
  EXPECT_NE(out.find("epsilon_spent=2"), std::string::npos) << out;
  EXPECT_NE(out.find("# served 40 queries"), std::string::npos) << out;
  std::remove(data_path.c_str());
}

TEST(CliTest, ServeStdinDriftNoteNamesTheKeptRelease) {
  // 256 unit ranges trip one drift check, run before the trailing
  // `stats` line. L~ would answer them better, but by less than the
  // 1000x ratio, so H-bar (epoch 1) keeps serving and the note must say
  // so: the declined L~ is only a candidate.
  const std::string data_path = TempPath("cli_drift_note_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "256"},
                    &out, &err),
            0)
      << err;
  std::string script;
  for (int i = 0; i < 256; ++i) {
    script += "q " + std::to_string(i) + " " + std::to_string(i) + "\n";
  }
  script += "stats\n";
  ASSERT_EQ(RunMainWithInput(script,
                             {"serve", "--input", data_path.c_str(),
                              "--stdin", "--epsilon", "1", "--strategy",
                              "hbar", "--replan-drift", "1000",
                              "--replan-sync"},
                             &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("\n# drift check kept epoch 1 over candidate ltilde "
                     "measured="),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("kept ltilde"), std::string::npos) << out;
  EXPECT_EQ(out.find("# planned"), std::string::npos) << out;
  EXPECT_NE(out.find("# served 256 queries from epoch 1 (hbar, "),
            std::string::npos)
      << out;
  std::remove(data_path.c_str());
}

// 32 unit ranges trip --replan-every 32 after the last answer, before a
// trailing `stats` line, so the release that answered them (epoch 1,
// H-bar) is no longer the current one (epoch 2, L~) when the final
// receipt is printed. The receipt must not describe epoch 1 as L~.
constexpr char kTrailingReplanReceipt[] =
    "# served 32 queries from epoch 1 (now epoch 2: ltilde, eps=1, "
    "shards=1, engine_kernel=";

TEST(CliTest, ServeQueriesReceiptNamesTheEpochAfterATrailingReplan) {
  const std::string data_path = TempPath("cli_receipt_file_data.csv");
  const std::string queries_path = TempPath("cli_receipt_file_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "256"},
                    &out, &err),
            0)
      << err;
  {
    std::ofstream queries(queries_path);
    for (int i = 0; i < 32; ++i) queries << i << " " << i << "\n";
    queries << "stats\n";
  }
  ASSERT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1", "--strategy",
                     "hbar", "--replan-every", "32", "--replan-sync"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("# planned strategy=ltilde shards=1 epoch=2 "
                     "reason=every"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(kTrailingReplanReceipt), std::string::npos) << out;
  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

// A session's triggers are polled before each command, never after its
// last. When 32 unit ranges are the whole input, through a workload file
// or stdin alike, nothing reads a release published after them, so none
// is published: the state dir's ledger holds the initial publish alone.
TEST(CliTest, ServeSpendsNothingAfterItsLastLine) {
  const std::string data_path = TempPath("cli_no_trailing_data.csv");
  const std::string queries_path = TempPath("cli_no_trailing_queries.txt");
  const std::string state_dir = TempPath("cli_no_trailing_state");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "256"},
                    &out, &err),
            0)
      << err;
  std::string script;
  for (int i = 0; i < 32; ++i) {
    script += std::to_string(i) + " " + std::to_string(i) + "\n";
  }
  {
    std::ofstream queries(queries_path);
    queries << script;
  }
  for (const bool from_file : {true, false}) {
    SCOPED_TRACE(from_file ? "--queries" : "--stdin");
    std::filesystem::remove_all(state_dir);
    std::vector<const char*> args = {
        "serve",         "--input",       data_path.c_str(),
        "--epsilon",     "1",             "--strategy",
        "hbar",          "--replan-every", "32",
        "--replan-sync", "--state-dir",   state_dir.c_str()};
    if (from_file) {
      args.insert(args.end(), {"--queries", queries_path.c_str()});
      ASSERT_EQ(RunMainWithInput("", args, &out, &err), 0) << err;
    } else {
      args.push_back("--stdin");
      ASSERT_EQ(RunMainWithInput(script, args, &out, &err), 0) << err;
    }
    EXPECT_EQ(out.find("# planned"), std::string::npos) << out;
    const std::size_t receipt = out.rfind("\n# served ");
    ASSERT_NE(receipt, std::string::npos) << out;
    EXPECT_EQ(out.compare(receipt + 1, 40,
                          "# served 32 queries from epoch 1 (hbar, "),
              0)
        << out;
    EXPECT_EQ(out.find('\n', receipt + 1), out.size() - 1) << out;

    ASSERT_EQ(RunMain({"recover", "--state-dir", state_dir.c_str(),
                       "--inspect"},
                      &out, &err),
              0)
        << err;
    EXPECT_NE(out.find("ledger_entries 1\n"), std::string::npos) << out;
    EXPECT_NE(out.find("snapshot epoch=1 "), std::string::npos) << out;
  }
  std::filesystem::remove_all(state_dir);
  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(CliTest, ServeStdinReceiptNamesTheEpochAfterATrailingReplan) {
  const std::string data_path = TempPath("cli_receipt_stdin_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "256"},
                    &out, &err),
            0)
      << err;
  std::string script;
  for (int i = 0; i < 32; ++i) {
    script += "q " + std::to_string(i) + " " + std::to_string(i) + "\n";
  }
  script += "stats\n";
  ASSERT_EQ(RunMainWithInput(script,
                             {"serve", "--input", data_path.c_str(),
                              "--stdin", "--epsilon", "1", "--strategy",
                              "hbar", "--replan-every", "32",
                              "--replan-sync"},
                             &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("# planned strategy=ltilde shards=1 epoch=2 "
                     "reason=every"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(kTrailingReplanReceipt), std::string::npos) << out;
  std::remove(data_path.c_str());
}

TEST(CliTest, ServeStdinManualReplanAndStats) {
  std::string data_path = TempPath("cli_stdin_manual_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "128"},
                    &out, &err),
            0)
      << err;
  ASSERT_EQ(RunMainWithInput(
                "q 0 0\nq 5 5\nq 9 9\nreplan\nq 0 0\nstats\nquit\n",
                {"serve", "--input", data_path.c_str(), "--stdin",
                 "--epsilon", "1", "--strategy", "hbar"},
                &out, &err),
            0)
      << err;
  // The manual replan switched the unit-heavy session away from the
  // concrete initial strategy and spent a second epsilon.
  EXPECT_NE(out.find("# planned strategy=ltilde"), std::string::npos)
      << out;
  EXPECT_NE(out.find("reason=manual"), std::string::npos) << out;
  EXPECT_NE(out.find("epoch=2"), std::string::npos) << out;
  EXPECT_NE(out.find("epsilon_spent=2"), std::string::npos) << out;
  // The initial publish and the replan: the lifecycle's count.
  EXPECT_NE(out.find(" publishes=2 "), std::string::npos) << out;
  std::remove(data_path.c_str());
}

TEST(CliTest, ServeStdinSurvivesParseErrors) {
  std::string data_path = TempPath("cli_stdin_err_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "64"},
                    &out, &err),
            0)
      << err;
  // A typo mid-session reports an error and keeps serving; the next
  // query still gets an answer and the session exits cleanly.
  ASSERT_EQ(RunMainWithInput("frobnicate\nq 0 63\nquit\n",
                             {"serve", "--input", data_path.c_str(),
                              "--stdin", "--epsilon", "1"},
                             &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("unknown command"), std::string::npos) << out;
  EXPECT_NE(out.find("# served 1 queries"), std::string::npos) << out;
  std::remove(data_path.c_str());
}

TEST(CliTest, ServeStdinEdgeScriptTranscriptIsPinned) {
  // Transcripts recorded with the stream-based line parser and answer
  // formatting: signs, hex and trailing garbage, qb counts that are
  // short, long or over the cap, int64 boundaries, \v, \f, \r and NUL
  // bytes, a manual replan's plan note, integral answers (wavelet with
  // rounding) and fractional ones (L~ with --no-round). The in-place
  // parser and the integer fast path must reproduce them byte for byte.
  // The final receipt's engine counters are process-wide, so each pin
  // stops before them.
  using namespace std::string_literals;
  std::string data_path = TempPath("cli_stdin_pin_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "300"},
                    &out, &err),
            0)
      << err;
  const std::string script =
      "q 0 5\n3,9\n+5 9\nq +-5 6\nq 0x10 20\nq 007 010\n5x 7\nq 1 5x\n"
      "qb 2 0 1\nqb 1 0 1 2 3\nqb 1048577 0 1\nqb 1048576 0 1\nqb 0\n"
      "q -9223372036854775808 1\nq 0 9223372036854775808\n\v\n\f3 4\n"
      "3 4\r\n ,# comment\nq 1 2\0\nq\0 1 2\nfrobnicate 1 2\nq 0 299\n"
      "q 0 300\nqb 3 0 299 10 200 150 151\nreplan\nq 17 17\nquit\n"s;
  const std::string wavelet =
      "# serving n=300 epoch=1 strategy=wavelet shards=1 eps=1\n"
      "277\n"
      "229\n"
      "184\n"
      "error: InvalidArgument: query line 4: expected \"lo hi\"\n"
      "error: InvalidArgument: query line 5: expected \"lo hi\"\n"
      "136\n"
      "error: InvalidArgument: query line 7: unknown command \"5x\"\n"
      "215\n"
      "error: InvalidArgument: query line 9: expected \"lo hi\"\n"
      "79\n"
      "# batch n=1 epoch=1\n"
      "error: InvalidArgument: query line 11: qb batch size exceeds 1048576\n"
      "error: InvalidArgument: query line 12: expected \"lo hi\"\n"
      "error: InvalidArgument: query line 13: qb expects a positive batch "
      "size\n"
      "error: OutOfRange: query line 14: range out of bounds\n"
      "error: InvalidArgument: query line 15: expected \"lo hi\"\n"
      "error: InvalidArgument: query line 16: unknown command \"\"\n"
      "45\n"
      "45\n"
      "120\n"
      "error: InvalidArgument: query line 21: unknown command \"q\0\"\n"
      "error: InvalidArgument: query line 22: unknown command \"frobnicate\"\n"
      "2382\n"
      "error: OutOfRange: query line 24: range out of bounds\n"
      "2382\n"
      "1539\n"
      "15\n"
      "# batch n=3 epoch=1\n"
      "# planned strategy=hbar shards=4 epoch=2 reason=manual "
      "predicted_mean_var=123.666\n"
      "19\n"
      "# served 14 queries from epoch 2 (hbar, eps=1, shards=4, "
      "engine_kernel="s;
  const std::string ltilde_no_round =
      "# serving n=300 epoch=1 strategy=ltilde shards=1 eps=1\n"
      "273.826770793887\n"
      "225.306778975417\n"
      "184.02972422666\n"
      "error: InvalidArgument: query line 4: expected \"lo hi\"\n"
      "error: InvalidArgument: query line 5: expected \"lo hi\"\n"
      "135.839431103411\n"
      "error: InvalidArgument: query line 7: unknown command \"5x\"\n"
      "200.638526403573\n"
      "error: InvalidArgument: query line 9: expected \"lo hi\"\n"
      "87.4825594774178\n"
      "# batch n=1 epoch=1\n"
      "error: InvalidArgument: query line 11: qb batch size exceeds 1048576\n"
      "error: InvalidArgument: query line 12: expected \"lo hi\"\n"
      "error: InvalidArgument: query line 13: qb expects a positive batch "
      "size\n"
      "error: OutOfRange: query line 14: range out of bounds\n"
      "error: InvalidArgument: query line 15: expected \"lo hi\"\n"
      "error: InvalidArgument: query line 16: unknown command \"\"\n"
      "41.2770547487571\n"
      "41.2770547487571\n"
      "112.832930724261\n"
      "error: InvalidArgument: query line 21: unknown command \"q\0\"\n"
      "error: InvalidArgument: query line 22: unknown command \"frobnicate\"\n"
      "2388.30712781782\n"
      "error: OutOfRange: query line 24: range out of bounds\n"
      "2388.30712781782\n"
      "1543.4942749644\n"
      "10.0863184247912\n"
      "# batch n=3 epoch=1\n"
      "# planned strategy=hbar shards=4 epoch=2 reason=manual "
      "predicted_mean_var=123.666\n"
      "19.3132714017284\n"
      "# served 14 queries from epoch 2 (hbar, eps=1, shards=4, "
      "engine_kernel="s;
  const std::pair<std::vector<const char*>, std::string> pins[] = {
      {{"--strategy", "wavelet"}, wavelet},
      {{"--strategy", "ltilde", "--no-round"}, ltilde_no_round},
  };
  for (const auto& [flags, expected] : pins) {
    std::vector<const char*> args = {"serve", "--input", data_path.c_str(),
                                     "--stdin", "--epsilon", "1"};
    args.insert(args.end(), flags.begin(), flags.end());
    ASSERT_EQ(RunMainWithInput(script, args, &out, &err), 0) << err;
    EXPECT_EQ(out.substr(0, expected.size()), expected);
  }
  std::remove(data_path.c_str());
}

TEST(CliTest, ServeQueriesFileAcceptsSessionCommands) {
  // The file mode shares the session grammar: a workload file may carry
  // control commands, and the same parser serves both paths.
  std::string data_path = TempPath("cli_file_session_data.csv");
  std::string queries_path = TempPath("cli_file_session_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "128"},
                    &out, &err),
            0)
      << err;
  {
    std::ofstream queries(queries_path);
    queries << "# a comment\n"
            << "0 0\n"
            << "q 5 5\n"
            << "replan\n"
            << "qb 2 0 63 7 7\n"
            << "stats\n";
  }
  ASSERT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     queries_path.c_str(), "--epsilon", "1", "--strategy",
                     "htilde"},
                    &out, &err),
            0)
      << err;
  // 4 answers; the replan between them republished at epoch 2.
  EXPECT_NE(out.find("# planned strategy="), std::string::npos) << out;
  EXPECT_NE(out.find("reason=manual"), std::string::npos) << out;
  EXPECT_NE(out.find("# served 4 queries from epoch 2"), std::string::npos)
      << out;
  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(CliTest, ServeQueriesFileTranscriptIsPinned) {
  // A mixed workload file: comments, blank lines, bare, comma and `q`
  // ranges, a `qb` batch, a manual replan and a mid-file `quit`. The
  // transcripts were recorded before a script became one range array
  // with steps over it, and each run of single-range lines must still
  // be answered as one engine batch. The final receipt's engine
  // counters are process-wide, so each pin stops before them and the
  // batches are counted as a difference.
  const std::string data_path = TempPath("cli_file_pin_data.csv");
  const std::string queries_path = TempPath("cli_file_pin_queries.txt");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "300"},
                    &out, &err),
            0)
      << err;
  {
    std::ofstream queries(queries_path);
    queries << "# mixed workload\n0 5\n3,9\n\nq 1 2\nqb 2 0 0 1 1\n7 7\n"
               "  # indented comment\n8 9\nreplan\n10 20\nq 0 299\nquit\n"
               "11 11\n";
  }
  const std::string replanned =
      "# planned strategy=ltilde shards=1 epoch=2 reason=manual "
      "predicted_mean_var=4.85714\n"
      "228\n"
      "2404\n"
      "# served 9 queries from epoch 2 (ltilde, eps=1, shards=1, "
      "engine_kernel=";
  struct Pin {
    std::vector<const char*> flags;
    std::string expected;
    std::uint64_t engine_batches;  // H-bar is walker-served until replan
  };
  const Pin pins[] = {
      {{"--strategy", "hbar"},
       "272\n204\n128\n78\n17\n43\n65\n" + replanned, 1},
      {{"--strategy", "wavelet", "--shards", "3"},
       "285\n224\n116\n72\n11\n39\n63\n" + replanned, 4},
  };
  for (const Pin& pin : pins) {
    std::vector<const char*> args = {"serve", "--input", data_path.c_str(),
                                     "--queries", queries_path.c_str(),
                                     "--epsilon", "1"};
    args.insert(args.end(), pin.flags.begin(), pin.flags.end());
    const std::uint64_t before =
        engine::GlobalEngineCounters().total_batches();
    ASSERT_EQ(RunMainWithInput("", args, &out, &err), 0) << err;
    EXPECT_EQ(out.substr(0, pin.expected.size()), pin.expected);
    EXPECT_EQ(engine::GlobalEngineCounters().total_batches() - before,
              pin.engine_batches);
  }
  std::remove(data_path.c_str());
  std::remove(queries_path.c_str());
}

TEST(CliTest, ServeListenServesTwoConcurrentClients) {
  // Network mode end to end through the real flag wiring: the server
  // publishes once, writes the resolved ephemeral port to --port-file,
  // serves exactly --max-sessions connections, and exits with a
  // listener summary. Two concurrent clients replay the same script;
  // with a huge epsilon and integer rounding their answer lines agree
  // byte-for-byte whatever epoch each command lands on.
  std::string data_path = TempPath("cli_listen_data.csv");
  std::string port_path = TempPath("cli_listen_port.txt");
  std::remove(port_path.c_str());
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "128"},
                    &out, &err),
            0)
      << err;

  std::string server_out, server_err;
  int server_code = -1;
  std::thread server_thread([&] {
    server_code = RunMain({"serve", "--input", data_path.c_str(),
                           "--listen", "0", "--max-sessions", "2",
                           "--epsilon", "400", "--strategy", "hbar",
                           "--replan-every", "8", "--port-file",
                           port_path.c_str()},
                          &server_out, &server_err);
  });

  // The port file appears once the listener is up.
  int port = 0;
  for (int i = 0; i < 200 && port == 0; ++i) {
    std::ifstream port_file(port_path);
    if (!(port_file >> port)) {
      port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_GT(port, 0) << "server never wrote its port file";

  const std::string script =
      "q 0 7\nq 8 15\nq 16 31\nq 0 127\nq 64 64\n"
      "qb 3 0 0 1 1 2 2\nquit\n";
  auto run_client = [&](std::vector<std::string>* transcript) {
    auto stream = runtime::ConnectLoopback(port);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    *stream.value() << script;
    stream.value()->flush();
    std::string line;
    while (std::getline(*stream.value(), line)) transcript->push_back(line);
  };
  std::vector<std::string> transcripts[2];
  std::thread clients[2];
  for (int t = 0; t < 2; ++t) {
    clients[t] = std::thread([&, t] { run_client(&transcripts[t]); });
  }
  for (std::thread& client : clients) client.join();
  server_thread.join();

  EXPECT_EQ(server_code, 0) << server_err;
  EXPECT_NE(server_out.find("# listening port="), std::string::npos)
      << server_out;
  EXPECT_NE(server_out.find("# served 16 queries over 2 sessions"),
            std::string::npos)
      << server_out;

  auto answers = [](const std::vector<std::string>& lines) {
    std::vector<std::string> kept;
    for (const std::string& line : lines) {
      if (!line.empty() && line[0] != '#') kept.push_back(line);
    }
    return kept;
  };
  for (int t = 0; t < 2; ++t) {
    ASSERT_FALSE(transcripts[t].empty());
    EXPECT_EQ(transcripts[t][0].rfind("# serving n=128", 0), 0u)
        << transcripts[t][0];
    EXPECT_EQ(answers(transcripts[t]).size(), 8u);
    EXPECT_NE(transcripts[t].back().find("# served 8 queries"),
              std::string::npos)
        << transcripts[t].back();
  }
  EXPECT_EQ(answers(transcripts[0]), answers(transcripts[1]));

  std::remove(data_path.c_str());
  std::remove(port_path.c_str());
}

TEST(CliTest, BinaryClientTranscriptMatchesTheTextClients) {
  // One script against two fresh, identically seeded servers: the text
  // client echoes what the server wrote, the binary client renders the
  // frames through the same SessionWriter, so the transcripts match
  // byte for byte, "#" lines included. (`stats` stays out: its
  // protocol= field names the protocol.) The binary client parses and
  // pipelines the whole script, yet each malformed line's error lands
  // where the text server writes it: first, after an announced replan,
  // and right after a `replan` reply.
  const std::string data_path = TempPath("cli_client_parity_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "128"},
                    &out, &err),
            0)
      << err;
  const std::string script =
      "bogus 1\nq 0 7\nq 8 15\nq 16 31\nq 0 127\nq 64 64\n"
      "qb 3 0 0 1 1 2 2\nq 3 999\nq 3 3\nreplan\nq 5\nq 0 63\nq 5 9\n"
      "quit\n";
  std::string transcripts[2];
  for (int binary = 0; binary < 2; ++binary) {
    SCOPED_TRACE(binary != 0 ? "client --binary" : "client");
    const std::string port_path =
        TempPath("cli_client_parity_port" + std::to_string(binary));
    std::remove(port_path.c_str());
    std::string server_out, server_err;
    int server_code = -1;
    std::thread server_thread([&] {
      server_code = RunMain(
          {"serve", "--input", data_path.c_str(), "--listen", "0",
           "--max-sessions", "1", "--epsilon", "400", "--strategy", "hbar",
           "--replan-every", "8", "--replan-sync", "--port-file",
           port_path.c_str()},
          &server_out, &server_err);
    });
    int port = 0;
    for (int i = 0; i < 200 && port == 0; ++i) {
      std::ifstream port_file(port_path);
      if (!(port_file >> port)) {
        port = 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    ASSERT_GT(port, 0) << "server never wrote its port file";
    const std::string port_text = std::to_string(port);
    std::vector<const char*> args = {"client", "--port", port_text.c_str()};
    if (binary != 0) args.push_back("--binary");
    std::string client_err;
    EXPECT_EQ(RunMainWithInput(script, args, &transcripts[binary],
                               &client_err),
              0)
        << client_err;
    server_thread.join();
    EXPECT_EQ(server_code, 0) << server_err;
    std::remove(port_path.c_str());
  }
  EXPECT_NE(transcripts[0].find("reason=every"), std::string::npos)
      << transcripts[0];
  EXPECT_NE(transcripts[0].find("reason=manual"), std::string::npos)
      << transcripts[0];
  EXPECT_NE(transcripts[0].find("\n# served 11 queries from epoch 3\n"),
            std::string::npos)
      << transcripts[0];
  std::size_t errors = 0;
  for (std::size_t at = transcripts[0].find("\nerror: ");
       at != std::string::npos; at = transcripts[0].find("\nerror: ", at + 1)) {
    ++errors;
  }
  EXPECT_EQ(errors, 3u) << transcripts[0];
  EXPECT_EQ(transcripts[1], transcripts[0]);
  std::remove(data_path.c_str());
}

TEST(CliTest, ServeListenValidatesFlags) {
  std::string data_path = TempPath("cli_listen_flags_data.csv");
  std::string out, err;
  ASSERT_EQ(RunMain({"generate", "--dataset", "social", "--output",
                     data_path.c_str(), "--size", "64"},
                    &out, &err),
            0)
      << err;
  // --stdin and --listen are exclusive.
  EXPECT_EQ(RunMainWithInput("quit\n",
                             {"serve", "--input", data_path.c_str(),
                              "--stdin", "--listen", "0", "--epsilon", "1"},
                             &out, &err),
            1);
  EXPECT_NE(err.find("exclusive"), std::string::npos) << err;
  // A workload file cannot ride along with a listener either — it
  // would be silently ignored.
  EXPECT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--queries",
                     "/tmp/nope.txt", "--listen", "0", "--epsilon", "1",
                     "--max-sessions", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("exclusive"), std::string::npos) << err;
  // Out-of-range port is rejected before any publish is attempted.
  EXPECT_EQ(RunMain({"serve", "--input", data_path.c_str(), "--listen",
                     "70000", "--epsilon", "1", "--max-sessions", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("port"), std::string::npos) << err;
  std::remove(data_path.c_str());
}

TEST(CliTest, MissingInputFileSurfacesIoError) {
  std::string out, err;
  EXPECT_EQ(RunMain({"release-sorted", "--input",
                     TempPath("nope.csv").c_str(), "--output",
                     TempPath("out.csv").c_str(), "--epsilon", "1"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

}  // namespace
}  // namespace dphist::cli
