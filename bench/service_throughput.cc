// Multi-threaded QueryService throughput benchmark, emitting JSON so
// BENCH_service.json tracks the serving layer across PRs (see
// tools/run_bench.sh).
//
// Protocol: T client threads replay the same stream of query phases —
// each phase is a fresh batch of distinct random ranges, shared by every
// client. Clients rendezvous at a barrier between phases so "the same
// phase" really is concurrent. Every answer is recomputed from the
// release (the service keeps no answer cache), so aggregate throughput
// scales with clients only as far as the host has free cores.
// Aggregate queries/sec is the total number of answers produced divided
// by wall time.
//
// The whole thread-count sweep runs kRepeats times, each run on a fresh
// service, and every thread count reports the median, min and max
// aggregate qps of its runs. Sweeping all thread counts once per round
// spreads a slow stretch of a shared host across every row instead of
// letting it land on one. The summary records the median at the smallest
// and largest thread counts and their ratio.
//
// Flags (DPHIST_* env equivalents): --domain-log2, --strategy,
// --branching, --epsilon, --queries (per phase), --phases,
// --threads-list (comma separated), --seed.

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "service/query_service.h"

using namespace dphist;  // NOLINT(build/namespaces)

namespace {

constexpr int kRepeats = 3;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// T clients replay `phases` against one service; returns aggregate
/// throughput across all clients.
double RunClients(const QueryService& service, int threads,
                  const std::vector<std::vector<Interval>>& phases) {
  std::barrier<> barrier(threads);
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  const double start = NowSeconds();
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&] {
      std::vector<double> answers;
      for (const std::vector<Interval>& phase : phases) {
        answers.resize(phase.size());
        barrier.arrive_and_wait();
        DPHIST_CHECK_MSG(
            service.TryQueryBatch(phase.data(), phase.size(), answers.data())
                .ok(),
            "batch failed");
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double elapsed = NowSeconds() - start;

  std::size_t total_queries = 0;
  for (const std::vector<Interval>& phase : phases) {
    total_queries += phase.size() * static_cast<std::size_t>(threads);
  }
  return static_cast<double>(total_queries) / elapsed;
}

struct ResultRow {
  int threads;
  double median_qps;
  double min_qps;
  double max_qps;
};

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
  const std::int64_t queries_per_phase =
      flags.GetInt("queries", 4096, "DPHIST_QUERIES");
  const std::int64_t phase_count = flags.GetInt("phases", 24, "DPHIST_PHASES");
  const std::vector<int> thread_counts = ParseThreadsList(
      flags.GetString("threads-list", "1,2,4,8", "DPHIST_THREADS_LIST"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  auto strategy = ParseStrategyKind(strategy_name);
  DPHIST_CHECK_MSG(strategy.ok(), "bad --strategy");

  Rng data_rng(seed);
  Histogram data =
      Histogram::FromCounts(ZipfCounts(n, 1.1, 5 * n, &data_rng));

  // serve's defaults otherwise: round+prune on, so H-bar is walker-served.
  SnapshotOptions snapshot_options;
  snapshot_options.epsilon = epsilon;
  snapshot_options.strategy = strategy.value();
  snapshot_options.branching = branching;

  // Pre-generated phase workloads: random location, mixed sizes, shared
  // verbatim by every client thread of a run.
  Rng workload_rng(13);
  std::vector<std::vector<Interval>> phases(
      static_cast<std::size_t>(phase_count));
  for (auto& phase : phases) {
    phase.reserve(static_cast<std::size_t>(queries_per_phase));
    for (std::int64_t i = 0; i < queries_per_phase; ++i) {
      std::int64_t lo = workload_rng.NextInt(0, n - 1);
      phase.emplace_back(lo, workload_rng.NextInt(lo, n - 1));
    }
  }

  std::vector<std::vector<double>> samples(thread_counts.size());
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      QueryService service;
      auto published = service.Publish(data, snapshot_options, seed);
      DPHIST_CHECK_MSG(published.ok(), "publish failed");
      samples[i].push_back(RunClients(service, thread_counts[i], phases));
    }
  }
  std::vector<ResultRow> rows;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::vector<double>& runs = samples[i];
    std::sort(runs.begin(), runs.end());
    rows.push_back({thread_counts[i], runs[runs.size() / 2], runs.front(),
                    runs.back()});
    std::fprintf(stderr, "%d thread(s): median %.3g q/s (min %.3g, max %.3g)\n",
                 rows.back().threads, rows.back().median_qps,
                 rows.back().min_qps, rows.back().max_qps);
  }
  // Speedup baseline: the smallest thread count actually run (1 with the
  // default list), so a custom --threads-list can never yield a silently
  // zero ratio.
  const auto [base, top] = std::minmax_element(
      rows.begin(), rows.end(),
      [](const ResultRow& a, const ResultRow& b) {
        return a.threads < b.threads;
      });

  std::printf("{\n");
  std::printf("  \"benchmark\": \"service_throughput\",\n");
  std::printf("  \"build\": \"%s\",\n",
#ifdef NDEBUG
              "Release"
#else
              "Debug"
#endif
  );
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"domain_log2\": %lld,\n",
              static_cast<long long>(domain_log2));
  std::printf("  \"strategy\": \"%s\",\n",
              StrategyKindName(strategy.value()));
  std::printf("  \"branching\": %lld,\n", static_cast<long long>(branching));
  std::printf("  \"epsilon\": %g,\n", epsilon);
  std::printf("  \"queries_per_phase\": %lld,\n",
              static_cast<long long>(queries_per_phase));
  std::printf("  \"phases\": %lld,\n", static_cast<long long>(phase_count));
  std::printf("  \"repeats\": %d,\n", kRepeats);
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf(
        "    {\"threads\": %d, \"median_queries_per_sec\": %.6g, "
        "\"min_queries_per_sec\": %.6g, \"max_queries_per_sec\": %.6g}%s\n",
        rows[i].threads, rows[i].median_qps, rows[i].min_qps,
        rows[i].max_qps, i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"summary\": {\n");
  std::printf("    \"min_threads\": %d,\n", base->threads);
  std::printf("    \"max_threads\": %d,\n", top->threads);
  std::printf("    \"median_qps_at_min_threads\": %.6g,\n", base->median_qps);
  std::printf("    \"median_qps_at_max_threads\": %.6g,\n", top->median_qps);
  std::printf("    \"speedup_max_over_min\": %.3f\n",
              top->median_qps / base->median_qps);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
