// Parallel Snapshot::Build benchmark, emitting JSON so
// BENCH_snapshot_build.json tracks publish latency across PRs (see
// tools/run_bench.sh).
//
// Protocol: one histogram of n = 2^domain-log2 Zipf counts is published
// repeatedly at each thread count in --threads-list; the recorded
// latency per thread count is the best of --repeats builds (publish
// latency is what an online replanner pays, so the steady-state floor is
// the relevant number). Shard RNG streams are forked in shard order
// before the fan-out, so the release must be bit-identical at every
// thread count — the bench verifies that on a probe workload and
// reports it as `bit_identical` (a false value is a correctness bug,
// not a performance result).
//
// The summary records build latency at 1 thread and at the maximum
// thread count plus their ratio — the acceptance metric for parallel
// builds (>= 3x at 8 threads on an 8-core host; on smaller hosts the
// honestly measured ratio lands near 1x and is reported as such).
//
// `hbar_build_steps` splits one unsharded H-bar build in serve's default
// config (n = 2^16, k = 2, eps = 1, round+prune) into the steps
// HBarEstimator runs over its node buffer, each the median of
// kStepRepeats runs, so a publish-latency change can be placed in one
// step: counts, Laplace noise, inference (z and h passes), prune,
// round, leaf state (leaf copy and the streamed consistency check, plus
// the prefix table for a consistent tree, as Restore runs them), and the
// whole constructor.
//
// Flags (DPHIST_* env equivalents): --domain-log2, --strategy,
// --branching, --epsilon, --shards, --threads-list (comma separated),
// --repeats, --seed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "estimators/universal.h"
#include "inference/hierarchical.h"
#include "inference/nonnegative_pruning.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "service/snapshot.h"

#include "provenance.h"

using namespace dphist;  // NOLINT(build/namespaces)

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> ParseThreadsList(const std::string& csv) {
  std::vector<int> threads;
  int value = 0;
  bool have_digit = false;
  for (char c : csv) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + (c - '0');
      have_digit = true;
    } else {
      if (have_digit) threads.push_back(value);
      value = 0;
      have_digit = false;
    }
  }
  if (have_digit) threads.push_back(value);
  DPHIST_CHECK_MSG(!threads.empty(), "empty --threads-list");
  return threads;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

constexpr std::int64_t kStepsDomainLog2 = 16;
constexpr int kStepRepeats = 41;

/// Median milliseconds of each step of one default H-bar build.
struct BuildSteps {
  double counts = 0.0;
  double noise = 0.0;
  double inference = 0.0;
  double prune = 0.0;
  double round = 0.0;
  double leaf_state = 0.0;
  double whole_build = 0.0;
};

BuildSteps TimeHBarBuildSteps(std::uint64_t seed) {
  const std::int64_t n = std::int64_t{1} << kStepsDomainLog2;
  Rng data_rng(seed);
  const Histogram data =
      Histogram::FromCounts(ZipfCounts(n, 1.1, 5 * n, &data_rng));
  const UniversalOptions options;
  const HierarchicalQuery query(n, options.branching);
  const TreeLayout& tree = query.tree();
  const LaplaceMechanism mechanism(options.epsilon);
  std::vector<double> steps[7];
  Rng rng(seed + 1);
  for (int r = 0; r < kStepRepeats; ++r) {
    double t[8];
    t[0] = NowSeconds();
    std::vector<double> nodes = query.Evaluate(data);
    t[1] = NowSeconds();
    mechanism.PerturbInPlace(&nodes, mechanism.NoiseScale(query), &rng);
    t[2] = NowSeconds();
    nodes =
        ConsistentEstimates(tree, SubtreeEstimates(tree, std::move(nodes)));
    t[3] = NowSeconds();
    nodes = PruneNonPositiveSubtrees(tree, std::move(nodes));
    t[4] = NowSeconds();
    nodes = RoundToNonNegativeIntegers(std::move(nodes));
    t[5] = NowSeconds();
    auto restored = HBarEstimator::Restore(n, options, std::move(nodes));
    t[6] = NowSeconds();
    DPHIST_CHECK_MSG(restored.ok(), "restore failed");
    HBarEstimator built(data, options, &rng);
    t[7] = NowSeconds();
    for (int i = 0; i < 7; ++i) steps[i].push_back((t[i + 1] - t[i]) * 1e3);
  }
  return {Median(steps[0]), Median(steps[1]), Median(steps[2]),
          Median(steps[3]), Median(steps[4]), Median(steps[5]),
          Median(steps[6])};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::int64_t domain_log2 =
      flags.GetInt("domain-log2", 20, "DPHIST_DOMAIN_LOG2");
  const std::int64_t n = std::int64_t{1} << domain_log2;
  const std::string strategy_name =
      flags.GetString("strategy", "hbar", "DPHIST_STRATEGY");
  const std::int64_t branching =
      flags.GetInt("branching", 2, "DPHIST_BRANCHING");
  const double epsilon = flags.GetDouble("epsilon", 0.1, "DPHIST_EPSILON");
  const std::int64_t shards = flags.GetInt("shards", 64, "DPHIST_SHARDS");
  const std::vector<int> thread_counts = ParseThreadsList(
      flags.GetString("threads-list", "1,2,4,8", "DPHIST_THREADS_LIST"));
  const std::int64_t repeats = flags.GetInt("repeats", 3, "DPHIST_REPEATS");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  auto strategy = ParseStrategyKind(strategy_name);
  DPHIST_CHECK_MSG(strategy.ok(), "bad --strategy");
  DPHIST_CHECK_MSG(strategy.value() != StrategyKind::kAuto,
                   "bench needs a concrete --strategy");

  Rng data_rng(seed);
  Histogram data =
      Histogram::FromCounts(ZipfCounts(n, 1.1, 5 * n, &data_rng));

  SnapshotOptions options;
  options.epsilon = epsilon;
  options.strategy = strategy.value();
  options.branching = branching;
  options.shards = shards;

  // Probe workload for the bit-identity check.
  Rng probe_rng(13);
  std::vector<Interval> probes;
  probes.reserve(256);
  for (int i = 0; i < 256; ++i) {
    std::int64_t lo = probe_rng.NextInt(0, n - 1);
    probes.emplace_back(lo, probe_rng.NextInt(lo, n - 1));
  }

  struct Row {
    int threads;
    double best_seconds;
  };
  std::vector<Row> rows;
  std::vector<double> reference_answers;
  bool bit_identical = true;
  for (int threads : thread_counts) {
    options.build_threads = threads;
    double best = 0.0;
    std::shared_ptr<const Snapshot> last;
    for (std::int64_t r = 0; r < repeats; ++r) {
      Rng rng(seed + 1);  // same stream every build: identical releases
      const double start = NowSeconds();
      auto built = Snapshot::Build(data, options, /*epoch=*/1, &rng);
      const double elapsed = NowSeconds() - start;
      DPHIST_CHECK_MSG(built.ok(), "build failed");
      last = built.value();
      if (r == 0 || elapsed < best) best = elapsed;
    }
    std::vector<double> answers(probes.size());
    last->RangeCountsInto(probes.data(), probes.size(), answers.data());
    if (reference_answers.empty()) {
      reference_answers = answers;
    } else if (answers != reference_answers) {
      bit_identical = false;  // determinism regression: report, don't hide
    }
    rows.push_back({threads, best});
    std::fprintf(stderr, "%d thread(s): %.3f s/build\n", threads, best);
  }

  // Speedup baseline: the smallest thread count actually run (1 with
  // the default list), so a custom --threads-list can never yield a
  // silently-zero acceptance metric.
  double seconds_at_min = 0.0;
  double seconds_at_max = 0.0;
  int min_threads = 0;
  int max_threads = 0;
  for (const Row& row : rows) {
    if (min_threads == 0 || row.threads < min_threads) {
      min_threads = row.threads;
      seconds_at_min = row.best_seconds;
    }
    if (row.threads >= max_threads) {
      max_threads = row.threads;
      seconds_at_max = row.best_seconds;
    }
  }

  std::printf("{\n");
  std::printf("  \"benchmark\": \"snapshot_build\",\n");
  std::printf("  \"build\": \"%s\",\n",
#ifdef NDEBUG
              "Release"
#else
              "Debug"
#endif
  );
  std::printf("  \"domain_log2\": %lld,\n",
              static_cast<long long>(domain_log2));
  std::printf("  \"strategy\": \"%s\",\n",
              StrategyKindName(strategy.value()));
  std::printf("  \"branching\": %lld,\n", static_cast<long long>(branching));
  std::printf("  \"epsilon\": %g,\n", epsilon);
  std::printf("  \"shards\": %lld,\n", static_cast<long long>(shards));
  std::printf("  \"repeats\": %lld,\n", static_cast<long long>(repeats));
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"cpu_model\": \"%s\",\n", bench::CpuModel().c_str());
  std::printf("  \"compiler\": \"%s\",\n", bench::Compiler());
  std::printf("  \"bit_identical\": %s,\n", bit_identical ? "true" : "false");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf(
        "    {\"threads\": %d, \"build_seconds\": %.6g}%s\n",
        rows[i].threads, rows[i].best_seconds,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  const BuildSteps steps = TimeHBarBuildSteps(seed);
  std::printf("  \"hbar_build_steps\": {\n");
  std::printf("    \"domain_log2\": %lld,\n",
              static_cast<long long>(kStepsDomainLog2));
  std::printf("    \"repeats\": %d,\n", kStepRepeats);
  std::printf(
      "    \"median_ms\": {\"counts\": %.3f, \"noise\": %.3f, "
      "\"inference\": %.3f, \"prune\": %.3f, \"round\": %.3f, "
      "\"leaf_state\": %.3f, \"whole_build\": %.3f}\n",
      steps.counts, steps.noise, steps.inference, steps.prune, steps.round,
      steps.leaf_state, steps.whole_build);
  std::printf("  },\n");
  std::printf("  \"summary\": {\n");
  std::printf("    \"min_threads\": %d,\n", min_threads);
  std::printf("    \"max_threads\": %d,\n", max_threads);
  std::printf("    \"build_seconds_min_threads\": %.6g,\n", seconds_at_min);
  std::printf("    \"build_seconds_max_threads\": %.6g,\n", seconds_at_max);
  std::printf("    \"speedup_max_over_min\": %.3f\n",
              seconds_at_max > 0.0 ? seconds_at_min / seconds_at_max : 0.0);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
