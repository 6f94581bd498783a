// Full planner sweep benchmark, emitting JSON so BENCH_plan.json tracks
// planning latency across PRs (see tools/run_bench.sh).
//
// Protocol: at each domain n = 2^log2 from --min-log2 to --max-log2, a
// deterministic mixed workload (units, short/medium/long ranges, one
// full-domain scan) is planned with ChoosePlan over the default
// candidate grid (L~, H-bar and wavelet x power-of-two shard ladder up
// to --max-shards). Two timings are recorded, best of --repeats:
//
//   plan_seconds        cold ChoosePlan on the recurrence closed forms,
//   warm_replan_seconds ChoosePlan through a pre-warmed CostModel after
//                       a one-query drift (the runtime's replan loop).
//
// The summary's acceptance metric is plan_seconds at the largest domain:
// the sweep at n = 2^24 must land in microseconds-to-low-milliseconds.
//
// Flags (DPHIST_* env equivalents): --min-log2, --max-log2,
// --max-shards, --epsilon, --repeats.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "planner/cost_model.h"
#include "planner/planner.h"
#include "planner/workload_profile.h"
#include "provenance.h"
#include "service/snapshot.h"

using namespace dphist;  // NOLINT(build/namespaces)

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic mixed workload: a unit count, a handful of ranges
// across the length scales, and one full scan.
planner::WorkloadProfile MakeProfile(std::int64_t n) {
  planner::WorkloadProfile profile(n);
  profile.AddLength(1);
  for (std::int64_t length :
       {std::int64_t{16}, std::int64_t{256}, std::int64_t{4096}, n / 16,
        n / 4}) {
    if (length < 2 || length > n) continue;
    profile.AddLength(length);
  }
  profile.AddLength(n);
  return profile;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::int64_t min_log2 =
      flags.GetInt("min-log2", 10, "DPHIST_MIN_LOG2");
  const std::int64_t max_log2 =
      flags.GetInt("max-log2", 24, "DPHIST_MAX_LOG2");
  const std::int64_t max_shards =
      flags.GetInt("max-shards", 64, "DPHIST_MAX_SHARDS");
  const double epsilon = flags.GetDouble("epsilon", 1.0, "DPHIST_EPSILON");
  const std::int64_t repeats = flags.GetInt("repeats", 5, "DPHIST_REPEATS");
  DPHIST_CHECK_MSG(min_log2 >= 1 && min_log2 <= max_log2,
                   "need 1 <= --min-log2 <= --max-log2");

  SnapshotOptions base;
  base.epsilon = epsilon;
  base.round_to_nonnegative_integers = false;  // closed forms are linear
  base.prune_nonpositive_subtrees = false;

  struct Row {
    std::int64_t log2 = 0;
    std::int64_t candidates = 0;
    double plan_seconds = 0.0;
    double warm_replan_seconds = 0.0;
    std::int64_t warm_lengths_reused = 0;
  };
  std::vector<Row> rows;

  for (std::int64_t log2 = min_log2; log2 <= max_log2; ++log2) {
    const std::int64_t n = std::int64_t{1} << log2;
    Row row;
    row.log2 = log2;

    planner::PlannerOptions options;
    options.max_shards = max_shards;
    planner::WorkloadProfile profile = MakeProfile(n);

    for (std::int64_t r = 0; r < repeats; ++r) {
      const double start = NowSeconds();
      auto plan = planner::ChoosePlan(profile, base, options);
      const double elapsed = NowSeconds() - start;
      DPHIST_CHECK_MSG(plan.ok(), "plan failed");
      if (r == 0) {
        row.candidates =
            static_cast<std::int64_t>(plan.value().candidates.size());
        row.plan_seconds = elapsed;
      }
      row.plan_seconds = std::min(row.plan_seconds, elapsed);
    }

    // Warm replan: one-query drift through a pre-warmed cost model, the
    // exact shape of the runtime's replan loop. The drift reuses every
    // length whose observed weight did not move.
    planner::CostModel cache(n);
    DPHIST_CHECK_MSG(
        planner::ChoosePlan(profile, base, options, &cache).ok(),
        "cache warmup failed");
    planner::WorkloadProfile drifted = MakeProfile(n);
    drifted.AddLength(16);
    for (std::int64_t r = 0; r < repeats; ++r) {
      const std::uint64_t reused_before = cache.stats().lengths_reused;
      const double start = NowSeconds();
      auto plan = planner::ChoosePlan(drifted, base, options, &cache);
      const double elapsed = NowSeconds() - start;
      DPHIST_CHECK_MSG(plan.ok(), "warm replan failed");
      if (r == 0) {
        row.warm_replan_seconds = elapsed;
        row.warm_lengths_reused = static_cast<std::int64_t>(
            cache.stats().lengths_reused - reused_before);
      }
      row.warm_replan_seconds = std::min(row.warm_replan_seconds, elapsed);
    }

    rows.push_back(row);
    std::fprintf(stderr,
                 "n=2^%lld: %lld candidates, plan %.3g ms, warm %.3g ms\n",
                 static_cast<long long>(log2),
                 static_cast<long long>(row.candidates),
                 row.plan_seconds * 1e3, row.warm_replan_seconds * 1e3);
  }

  const Row& widest = rows.back();

  std::printf("{\n");
  std::printf("  \"benchmark\": \"plan_sweep\",\n");
  std::printf("  \"build\": \"%s\",\n",
#ifdef NDEBUG
              "Release"
#else
              "Debug"
#endif
  );
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"cpu_model\": \"%s\",\n", bench::CpuModel().c_str());
  std::printf("  \"compiler\": \"%s\",\n", bench::Compiler());
  std::printf("  \"epsilon\": %g,\n", epsilon);
  std::printf("  \"max_shards\": %lld,\n",
              static_cast<long long>(max_shards));
  std::printf("  \"repeats\": %lld,\n", static_cast<long long>(repeats));
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("    {\"domain_log2\": %lld, \"candidates\": %lld, "
                "\"plan_seconds\": %.6g, \"warm_replan_seconds\": %.6g, "
                "\"warm_lengths_reused\": %lld}%s\n",
                static_cast<long long>(row.log2),
                static_cast<long long>(row.candidates), row.plan_seconds,
                row.warm_replan_seconds,
                static_cast<long long>(row.warm_lengths_reused),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"summary\": {\n");
  std::printf("    \"max_domain_log2\": %lld,\n",
              static_cast<long long>(widest.log2));
  std::printf("    \"plan_seconds_at_max_domain\": %.6g,\n",
              widest.plan_seconds);
  std::printf("    \"warm_replan_seconds_at_max_domain\": %.6g\n",
              widest.warm_replan_seconds);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
