// Streaming-serve benchmark: steady-state throughput of the long-lived
// runtime plus the reader-visible cost of an online replan, emitting
// JSON so BENCH_streaming.json tracks both across PRs (see
// tools/run_bench.sh).
//
// Protocol: one client thread streams batches of random ranges through
// a QueryService managed by an EpochManager (exactly the `dphist serve
// --stdin` wiring). After a warmup, --measure batches establish the
// steady state (aggregate qps and median batch latency). Then, --repeats
// times, a helper thread runs a synchronous manager replan — export the
// observed profile, ChoosePlan, rebuild the snapshot, swap — while the
// client keeps streaming; every batch latency inside the replan window
// is recorded. The reported "replan pause" is the worst batch latency a
// reader saw while a replan was in flight: with the swap happening off
// the serving thread it should sit near the steady median on a
// multi-core host, while on a single core the replan's build competes
// for the only core and the honest pause is larger (reported as such;
// see README "Streaming serving" for the 1-core caveat).
//
// Flags (DPHIST_* env equivalents): --domain-log2, --strategy,
// --branching, --epsilon, --batch, --measure, --warmup, --repeats,
// --seed.

#include <algorithm>
#include <atomic>
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
#include "runtime/epoch_manager.h"
#include "service/query_service.h"

using namespace dphist;  // NOLINT(build/namespaces)

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  DPHIST_CHECK_MSG(!values.empty(), "median of nothing");
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct ReplanWindow {
  double replan_seconds;      // helper-thread replan wall time
  double max_batch_latency;   // worst batch latency inside the window
  double min_batch_latency;
  std::uint64_t batches;      // batches answered during the window
  std::uint64_t epoch_after;  // epoch observed once the swap landed
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::int64_t domain_log2 =
      flags.GetInt("domain-log2", 14, "DPHIST_DOMAIN_LOG2");
  const std::int64_t n = std::int64_t{1} << domain_log2;
  const std::string strategy_name =
      flags.GetString("strategy", "hbar", "DPHIST_STRATEGY");
  const std::int64_t branching =
      flags.GetInt("branching", 2, "DPHIST_BRANCHING");
  const double epsilon = flags.GetDouble("epsilon", 0.1, "DPHIST_EPSILON");
  const std::int64_t batch_size = flags.GetInt("batch", 64, "DPHIST_BATCH");
  const std::int64_t warmup_batches =
      flags.GetInt("warmup", 200, "DPHIST_WARMUP");
  const std::int64_t measure_batches =
      flags.GetInt("measure", 2000, "DPHIST_MEASURE");
  const std::int64_t repeats = flags.GetInt("repeats", 5, "DPHIST_REPEATS");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  auto strategy = ParseStrategyKind(strategy_name);
  DPHIST_CHECK_MSG(strategy.ok(), "bad --strategy");

  Rng data_rng(seed);
  Histogram data =
      Histogram::FromCounts(ZipfCounts(n, 1.1, 5 * n, &data_rng));

  QueryService service;

  runtime::EpochManagerOptions manager_options;
  manager_options.base.epsilon = epsilon;
  manager_options.base.strategy = strategy.value();
  manager_options.base.branching = branching;
  runtime::EpochManager manager(&service, data, manager_options, seed);
  DPHIST_CHECK_MSG(manager.PublishInitial().ok(), "initial publish failed");

  // Mixed-length random workload, regenerated per batch from a
  // deterministic stream.
  Rng workload_rng(13);
  std::vector<Interval> batch(static_cast<std::size_t>(batch_size),
                              Interval(0, 0));
  std::vector<double> answers(static_cast<std::size_t>(batch_size));
  auto fill_batch = [&] {
    for (auto& range : batch) {
      const std::int64_t lo = workload_rng.NextInt(0, n - 1);
      range = Interval(lo, workload_rng.NextInt(lo, n - 1));
    }
  };
  auto run_batch = [&]() -> std::uint64_t {
    fill_batch();
    Result<std::uint64_t> answered =
        service.TryQueryBatch(batch.data(), batch.size(), answers.data());
    DPHIST_CHECK_MSG(answered.ok(), "batch failed");
    return answered.value();
  };

  for (std::int64_t i = 0; i < warmup_batches; ++i) run_batch();

  // Steady state: no replan in flight.
  std::vector<double> steady_latencies;
  steady_latencies.reserve(static_cast<std::size_t>(measure_batches));
  const double steady_start = NowSeconds();
  for (std::int64_t i = 0; i < measure_batches; ++i) {
    const double t0 = NowSeconds();
    run_batch();
    steady_latencies.push_back(NowSeconds() - t0);
  }
  const double steady_elapsed = NowSeconds() - steady_start;
  const double steady_qps =
      static_cast<double>(measure_batches * batch_size) / steady_elapsed;
  const double steady_median_latency = Median(steady_latencies);

  // Replan windows: a helper thread replans while the client streams.
  std::vector<ReplanWindow> windows;
  for (std::int64_t r = 0; r < repeats; ++r) {
    std::atomic<bool> replan_done{false};
    double replan_seconds = 0.0;
    std::thread helper([&] {
      const double t0 = NowSeconds();
      auto outcome = manager.ReplanNow();
      replan_seconds = NowSeconds() - t0;
      DPHIST_CHECK_MSG(outcome.status.ok(), "replan failed");
      replan_done.store(true, std::memory_order_release);
    });
    ReplanWindow window{};
    window.min_batch_latency = 1e99;
    while (!replan_done.load(std::memory_order_acquire)) {
      const double t0 = NowSeconds();
      window.epoch_after = run_batch();
      const double latency = NowSeconds() - t0;
      window.max_batch_latency =
          std::max(window.max_batch_latency, latency);
      window.min_batch_latency =
          std::min(window.min_batch_latency, latency);
      window.batches += 1;
    }
    helper.join();
    window.replan_seconds = replan_seconds;
    // One more batch so epoch_after definitely reflects the new epoch.
    window.epoch_after = run_batch();
    windows.push_back(window);
    std::fprintf(stderr,
                 "replan %lld: %.4fs build, %llu batches in flight, max "
                 "batch latency %.3gs (steady median %.3gs)\n",
                 static_cast<long long>(r), window.replan_seconds,
                 static_cast<unsigned long long>(window.batches),
                 window.max_batch_latency, steady_median_latency);
  }

  double worst_pause = 0.0;
  double mean_replan_seconds = 0.0;
  for (const ReplanWindow& window : windows) {
    worst_pause = std::max(worst_pause, window.max_batch_latency);
    mean_replan_seconds += window.replan_seconds;
  }
  if (!windows.empty()) {
    mean_replan_seconds /= static_cast<double>(windows.size());
  }

  std::printf("{\n");
  std::printf("  \"benchmark\": \"streaming_serve\",\n");
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
  std::printf("  \"epsilon\": %g,\n", epsilon);
  std::printf("  \"batch\": %lld,\n", static_cast<long long>(batch_size));
  std::printf("  \"measure_batches\": %lld,\n",
              static_cast<long long>(measure_batches));
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"replans\": [\n");
  for (std::size_t i = 0; i < windows.size(); ++i) {
    std::printf(
        "    {\"replan_seconds\": %.6g, \"batches_in_flight\": %llu, "
        "\"max_batch_latency_seconds\": %.6g, \"epoch_after\": %llu}%s\n",
        windows[i].replan_seconds,
        static_cast<unsigned long long>(windows[i].batches),
        windows[i].max_batch_latency,
        static_cast<unsigned long long>(windows[i].epoch_after),
        i + 1 < windows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"summary\": {\n");
  std::printf("    \"steady_state_qps\": %.6g,\n", steady_qps);
  std::printf("    \"steady_median_batch_latency_seconds\": %.6g,\n",
              steady_median_latency);
  std::printf("    \"replan_pause_seconds\": %.6g,\n", worst_pause);
  std::printf("    \"mean_replan_build_seconds\": %.6g,\n",
              mean_replan_seconds);
  std::printf("    \"final_epoch\": %llu\n",
              static_cast<unsigned long long>(service.current_epoch()));
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
