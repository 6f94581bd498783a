// Warm-restart benchmark for the durable epoch store, emitting JSON so
// BENCH_recovery.json tracks crash-recovery latency across PRs (see
// tools/run_bench.sh).
//
// Protocol: at each domain size a durable server publishes an initial
// epoch and one replan into a fresh --state-dir (two WAL ledger
// entries, two persisted snapshots), then the process state is thrown
// away and a cold EpochManager recovers from disk. Three timings are
// recorded, best of --repeats:
//   - durable_publish: PublishInitial through an EpochStore (estimator
//     build + WAL append + page-checksummed snapshot persist) — what a
//     durable server pays per release;
//   - volatile_publish: the same publish with no store attached — the
//     pre-durability baseline, so the WAL+snapshot overhead is visible
//     as a ratio rather than hidden;
//   - recover: EpochStore::Recover + ledger replay + snapshot restore +
//     PublishRestored — what a restart pays instead of re-spending
//     epsilon on a rebuild.
// Every recovery is checked bit-identical against the pre-"crash"
// release on a 256-probe workload and reported as `bit_identical` (a
// false value is a correctness bug, not a performance result).
//
// Flags (DPHIST_* env equivalents): --domain-log2-list (comma
// separated), --strategy, --epsilon, --shards, --repeats, --seed.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "provenance.h"
#include "runtime/epoch_manager.h"
#include "service/query_service.h"
#include "storage/epoch_store.h"

using namespace dphist;  // NOLINT(build/namespaces)

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> values;
  int value = 0;
  bool have_digit = false;
  for (char c : csv) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + (c - '0');
      have_digit = true;
    } else {
      if (have_digit) values.push_back(value);
      value = 0;
      have_digit = false;
    }
  }
  if (have_digit) values.push_back(value);
  DPHIST_CHECK_MSG(!values.empty(), "empty --domain-log2-list");
  return values;
}

std::string FreshStateDir() {
  std::string dir =
      (std::filesystem::temp_directory_path() / "dphist_bench_recovery")
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::vector<int> domain_log2s = ParseIntList(
      flags.GetString("domain-log2-list", "12,14,16,18", "DPHIST_DOMAINS"));
  const std::string strategy_name =
      flags.GetString("strategy", "hbar", "DPHIST_STRATEGY");
  const double epsilon = flags.GetDouble("epsilon", 0.5, "DPHIST_EPSILON");
  const std::int64_t shards = flags.GetInt("shards", 8, "DPHIST_SHARDS");
  const std::int64_t repeats = flags.GetInt("repeats", 3, "DPHIST_REPEATS");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  auto strategy = ParseStrategyKind(strategy_name);
  DPHIST_CHECK_MSG(strategy.ok(), "bad --strategy");
  DPHIST_CHECK_MSG(strategy.value() != StrategyKind::kAuto,
                   "bench needs a concrete --strategy");

  struct Row {
    std::int64_t domain;
    double durable_publish_seconds;
    double volatile_publish_seconds;
    double recover_seconds;
    std::uint64_t snapshot_bytes;
    std::uint64_t wal_bytes;
  };
  std::vector<Row> rows;
  bool bit_identical = true;

  for (int domain_log2 : domain_log2s) {
    const std::int64_t n = std::int64_t{1} << domain_log2;
    Rng data_rng(seed);
    Histogram data =
        Histogram::FromCounts(ZipfCounts(n, 1.1, 5 * n, &data_rng));

    runtime::EpochManagerOptions options;
    options.base.strategy = strategy.value();
    options.base.epsilon = epsilon;
    options.base.shards = shards;
    options.async = false;

    Rng probe_rng(13);
    std::vector<Interval> probes;
    probes.reserve(256);
    for (int i = 0; i < 256; ++i) {
      std::int64_t lo = probe_rng.NextInt(0, n - 1);
      probes.emplace_back(lo, probe_rng.NextInt(lo, n - 1));
    }

    Row row{n, 0.0, 0.0, 0.0, 0, 0};
    for (std::int64_t r = 0; r < repeats; ++r) {
      // Volatile baseline: the same release with durability off.
      {
        runtime::EpochManagerOptions volatile_options = options;
        volatile_options.store = nullptr;
        QueryService service;
        runtime::EpochManager manager(&service, data, volatile_options,
                                      seed + 1);
        const double start = NowSeconds();
        auto published = manager.PublishInitial();
        const double elapsed = NowSeconds() - start;
        DPHIST_CHECK_MSG(published.ok(), "volatile publish failed");
        if (r == 0 || elapsed < row.volatile_publish_seconds) {
          row.volatile_publish_seconds = elapsed;
        }
      }

      const std::string dir = FreshStateDir();
      std::vector<double> before(probes.size());
      {
        auto store = storage::EpochStore::Open(dir);
        DPHIST_CHECK_MSG(store.ok(), "store open failed");
        options.store = store.value().get();
        QueryService service;
        runtime::EpochManager manager(&service, data, options, seed + 1);
        const double start = NowSeconds();
        auto published = manager.PublishInitial();
        const double elapsed = NowSeconds() - start;
        DPHIST_CHECK_MSG(published.ok(), "durable publish failed");
        auto replanned = manager.ReplanNow();
        DPHIST_CHECK_MSG(replanned.status.ok(), "replan failed");
        DPHIST_CHECK_MSG(service
                             .TryQueryBatch(probes.data(), probes.size(),
                                            before.data())
                             .ok(),
                         "probe batch failed");
        if (r == 0 || elapsed < row.durable_publish_seconds) {
          row.durable_publish_seconds = elapsed;
        }
      }  // the "crash": every in-memory structure is discarded

      auto store = storage::EpochStore::Open(dir);
      DPHIST_CHECK_MSG(store.ok(), "store reopen failed");
      options.store = store.value().get();
      QueryService service;
      runtime::EpochManager manager(&service, data, options, seed + 1);
      const double start = NowSeconds();
      auto recovered = manager.Recover();
      const double elapsed = NowSeconds() - start;
      DPHIST_CHECK_MSG(recovered.ok(), "recover failed");
      DPHIST_CHECK_MSG(recovered.value().republished,
                       "recover restored nothing");
      if (r == 0 || elapsed < row.recover_seconds) {
        row.recover_seconds = elapsed;
      }
      std::vector<double> after(probes.size());
      DPHIST_CHECK_MSG(
          service.TryQueryBatch(probes.data(), probes.size(), after.data())
              .ok(),
          "probe batch failed");
      if (after != before) bit_identical = false;
      row.wal_bytes = store.value()->wal_size();
      std::error_code ec;
      const auto snapshot_size =
          std::filesystem::file_size(dir + "/snapshot.db", ec);
      row.snapshot_bytes = ec ? 0 : snapshot_size;
    }
    rows.push_back(row);
    std::fprintf(stderr,
                 "n=2^%d: durable publish %.4f s, volatile %.4f s, "
                 "recover %.4f s (%llu snapshot bytes)\n",
                 domain_log2, row.durable_publish_seconds,
                 row.volatile_publish_seconds, row.recover_seconds,
                 static_cast<unsigned long long>(row.snapshot_bytes));
  }

  const Row& largest = rows.back();
  const double durability_overhead =
      largest.volatile_publish_seconds > 0.0
          ? largest.durable_publish_seconds / largest.volatile_publish_seconds
          : 0.0;
  const double recover_vs_rebuild =
      largest.volatile_publish_seconds > 0.0
          ? largest.recover_seconds / largest.volatile_publish_seconds
          : 0.0;

  std::printf("{\n");
  std::printf("  \"benchmark\": \"recovery_restart\",\n");
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
  std::printf("  \"strategy\": \"%s\",\n", strategy_name.c_str());
  std::printf("  \"epsilon\": %.17g,\n", epsilon);
  std::printf("  \"shards\": %lld,\n", static_cast<long long>(shards));
  std::printf("  \"repeats\": %lld,\n", static_cast<long long>(repeats));
  std::printf("  \"bit_identical\": %s,\n", bit_identical ? "true" : "false");
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("    {\"domain\": %lld, \"durable_publish_seconds\": %.6g, "
                "\"volatile_publish_seconds\": %.6g, "
                "\"recover_seconds\": %.6g, \"snapshot_bytes\": %llu, "
                "\"wal_bytes\": %llu}%s\n",
                static_cast<long long>(row.domain),
                row.durable_publish_seconds, row.volatile_publish_seconds,
                row.recover_seconds,
                static_cast<unsigned long long>(row.snapshot_bytes),
                static_cast<unsigned long long>(row.wal_bytes),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"summary\": {\n");
  std::printf("    \"max_domain\": %lld,\n",
              static_cast<long long>(largest.domain));
  std::printf("    \"durable_publish_seconds_at_max_domain\": %.6g,\n",
              largest.durable_publish_seconds);
  std::printf("    \"volatile_publish_seconds_at_max_domain\": %.6g,\n",
              largest.volatile_publish_seconds);
  std::printf("    \"recover_seconds_at_max_domain\": %.6g,\n",
              largest.recover_seconds);
  std::printf("    \"durability_overhead_ratio\": %.4g,\n",
              durability_overhead);
  std::printf("    \"recover_vs_rebuild_ratio\": %.4g,\n", recover_vs_rebuild);
  std::printf("    \"snapshot_bytes_at_max_domain\": %llu\n",
              static_cast<unsigned long long>(largest.snapshot_bytes));
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
