// Socket-serve benchmark: aggregate throughput of the worker-pool
// network transport with N concurrent loopback connections sharing one
// QueryService + EpochManager, across BOTH wire protocols, emitting
// JSON so BENCH_socket.json tracks the transport from PR to PR (see
// tools/run_bench.sh).
//
// Protocol: an in-process SocketServer listens on an ephemeral loopback
// port (exactly the `dphist serve --listen` wiring). For each entry in
// --connections-list and each protocol in --protocols:
//
//   text    each connection streams `qb <batch> ...` command lines and
//           reads batch answers plus the single-epoch receipt — the
//           measured number includes the full session-grammar parse,
//           the query fan-in, and both socket hops.
//   binary  each connection speaks the length-prefixed frame protocol
//           (runtime/wire_format.h): one QUERY frame per batch, one
//           ANSWERS frame back — same queries, no text rendering or
//           parsing on either side.
//
// Client side, connections are multiplexed over a bounded thread pool
// (--client-threads, default 8): a thread owns its share of the
// connections, writes one batch to every connection, then collects
// every reply — so hundreds of connections do not need hundreds of
// client threads (the server side never did: it runs a fixed worker
// pool either way). Rounds per connection shrink as the connection
// count grows so every configuration does comparable total work.
// Aggregate qps is total answered ranges over the wall-clock of the
// slowest client thread; per_batch_us is the per-batch cost implied by
// that aggregate (batch * 1e6 / qps).
//
// On the 1-core reference container every client thread, server
// worker, and the measurement share one core, so the sweep measures
// protocol + readiness-loop overhead under contention rather than
// scaling; re-record on multicore for honest scaling (README "Network
// serving"). The PR 5 blocking thread-per-connection numbers recorded
// on this same container are embedded as the baseline block so the
// transition stays visible in the JSON.
//
// Flags (DPHIST_* env equivalents): --domain-log2, --strategy,
// --epsilon, --batch, --measure, --warmup, --connections-list,
// --protocols, --client-threads, --workers, --seed.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "runtime/epoch_manager.h"
#include "runtime/transport.h"
#include "runtime/wire_format.h"
#include "service/query_service.h"

using namespace dphist;  // NOLINT(build/namespaces)

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> ParseList(const std::string& csv,
                                    std::vector<std::int64_t> fallback) {
  if (csv.empty()) return fallback;
  std::vector<std::int64_t> values;
  std::istringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) values.push_back(std::stoll(token));
  }
  return values.empty() ? fallback : values;
}

std::vector<std::string> ParseNames(const std::string& csv,
                                    std::vector<std::string> fallback) {
  if (csv.empty()) return fallback;
  std::vector<std::string> values;
  std::istringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) values.push_back(token);
  }
  return values.empty() ? fallback : values;
}

/// All threads finish opening + warmup before anyone starts the clock,
/// so the measured window never overlaps another thread's connect storm.
class StartGate {
 public:
  explicit StartGate(int parties) : waiting_for_(parties) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (--waiting_for_ == 0) {
      open_ = true;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int waiting_for_;
  bool open_ = false;
};

struct ThreadResult {
  double seconds = 0.0;       // measured window wall-clock
  std::uint64_t queries = 0;  // ranges answered inside the window
  bool ok = false;
};

/// Fills `ranges` with `batch` random ranges over [0, n).
void FillRanges(Rng* rng, std::int64_t n, std::int64_t batch,
                std::vector<Interval>* ranges) {
  ranges->clear();
  for (std::int64_t i = 0; i < batch; ++i) {
    const std::int64_t lo = rng->NextInt(0, n - 1);
    ranges->emplace_back(lo, rng->NextInt(lo, n - 1));
  }
}

/// One client thread of the TEXT protocol driving `conns` connections:
/// writes one `qb` line to every connection, then reads every reply
/// (batch answer lines + the "# batch ..." receipt).
ThreadResult RunTextThread(StartGate* gate, int port, std::int64_t conns,
                           std::int64_t n, std::int64_t batch,
                           std::int64_t pipeline, std::int64_t warmup,
                           std::int64_t rounds, std::uint64_t seed) {
  ThreadResult result;
  std::vector<std::unique_ptr<runtime::SocketStream>> streams;
  std::string line;
  for (std::int64_t c = 0; c < conns; ++c) {
    auto stream = runtime::ConnectLoopback(port);
    if (!stream.ok()) return result;
    if (!std::getline(*stream.value(), line)) return result;  // banner
    streams.push_back(std::move(stream).value());
  }

  Rng rng(seed);
  std::vector<Interval> ranges;
  std::ostringstream command;
  auto run_round = [&]() -> bool {
    for (auto& stream : streams) {
      command.str("");
      for (std::int64_t d = 0; d < pipeline; ++d) {
        FillRanges(&rng, n, batch, &ranges);
        command << "qb " << batch;
        for (const Interval& range : ranges) {
          command << " " << range.lo() << " " << range.hi();
        }
        command << "\n";
      }
      *stream << command.str();
      stream->flush();
    }
    for (auto& stream : streams) {
      // answers + receipt, per pipelined batch
      for (std::int64_t i = 0; i < pipeline * (batch + 1); ++i) {
        if (!std::getline(*stream, line)) return false;
      }
    }
    return true;
  };

  for (std::int64_t i = 0; i < warmup; ++i) {
    if (!run_round()) return result;
  }
  gate->ArriveAndWait();
  const double start = NowSeconds();
  for (std::int64_t i = 0; i < rounds; ++i) {
    if (!run_round()) return result;
    result.queries += static_cast<std::uint64_t>(batch) *
                      static_cast<std::uint64_t>(conns) *
                      static_cast<std::uint64_t>(pipeline);
  }
  result.seconds = NowSeconds() - start;
  for (auto& stream : streams) {
    *stream << "quit\n";
    stream->flush();
    while (std::getline(*stream, line)) {
    }
  }
  result.ok = true;
  return result;
}

/// One client thread of the BINARY protocol: one QUERY frame per
/// connection per round, then one ANSWERS frame back from each.
ThreadResult RunBinaryThread(StartGate* gate, int port, std::int64_t conns,
                             std::int64_t n, std::int64_t batch,
                             std::int64_t pipeline, std::int64_t warmup,
                             std::int64_t rounds, std::uint64_t seed) {
  ThreadResult result;
  std::vector<std::unique_ptr<runtime::BinaryClient>> clients;
  for (std::int64_t c = 0; c < conns; ++c) {
    auto client = runtime::BinaryClient::Connect("127.0.0.1", port);
    if (!client.ok()) return result;
    clients.push_back(std::move(client).value());
  }

  Rng rng(seed);
  std::vector<Interval> ranges;
  std::uint64_t next_id = 0;
  auto run_round = [&]() -> bool {
    for (auto& client : clients) {
      // The pipelined frames ride one flush — one write syscall.
      for (std::int64_t d = 0; d < pipeline; ++d) {
        FillRanges(&rng, n, batch, &ranges);
        client->SendQuery(++next_id, 0, ranges.data(), ranges.size());
      }
      if (!client->Flush().ok()) return false;
    }
    for (auto& client : clients) {
      for (std::int64_t d = 0; d < pipeline; ++d) {
        auto reply = client->ReadReply();
        if (!reply.ok() ||
            reply.value().type != runtime::wire::FrameType::kAnswers) {
          return false;
        }
      }
    }
    return true;
  };

  for (std::int64_t i = 0; i < warmup; ++i) {
    if (!run_round()) return result;
  }
  gate->ArriveAndWait();
  const double start = NowSeconds();
  for (std::int64_t i = 0; i < rounds; ++i) {
    if (!run_round()) return result;
    result.queries += static_cast<std::uint64_t>(batch) *
                      static_cast<std::uint64_t>(conns) *
                      static_cast<std::uint64_t>(pipeline);
  }
  result.seconds = NowSeconds() - start;
  for (auto& client : clients) {
    client->SendGoodbye();
    if (!client->Flush().ok()) continue;
    while (true) {
      auto frame = client->ReadFrame();
      if (!frame.ok() ||
          frame.value().type == runtime::wire::FrameType::kBye) {
        break;
      }
    }
  }
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::int64_t domain_log2 =
      flags.GetInt("domain-log2", 14, "DPHIST_DOMAIN_LOG2");
  const std::int64_t n = std::int64_t{1} << domain_log2;
  const std::string strategy_name =
      flags.GetString("strategy", "hbar", "DPHIST_STRATEGY");
  const double epsilon = flags.GetDouble("epsilon", 0.1, "DPHIST_EPSILON");
  const std::int64_t batch = flags.GetInt("batch", 64, "DPHIST_BATCH");
  // Batches in flight per connection per round, both protocols. The
  // wire protocol needs no support for this (answers carry ids; lines
  // come back in order) — it is purely how hard the client leans on the
  // socket, and the headline capability this transport exists for.
  const std::int64_t pipeline =
      flags.GetInt("pipeline", 4, "DPHIST_PIPELINE");
  const std::int64_t warmup = flags.GetInt("warmup", 20, "DPHIST_WARMUP");
  // 1000 measured batches at one connection is a ~60ms window — long
  // enough that scheduler noise stops dominating the 1-core numbers.
  const std::int64_t measure =
      flags.GetInt("measure", 1000, "DPHIST_MEASURE");
  const std::int64_t client_threads =
      flags.GetInt("client-threads", 2, "DPHIST_CLIENT_THREADS");
  const std::int64_t workers = flags.GetInt("workers", 2, "DPHIST_WORKERS");
  // Each configuration runs this many times (fresh server each) and
  // records the median-qps sample: one hot or cold scheduler window on
  // the 1-core container otherwise skews the PR-to-PR comparison.
  const std::int64_t repeats = flags.GetInt("repeats", 3, "DPHIST_REPEATS");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::vector<std::int64_t> connections_list = ParseList(
      flags.GetString("connections-list", "", "DPHIST_CONNECTIONS_LIST"),
      {1, 4, 32, 128, 512});
  const std::vector<std::string> protocols = ParseNames(
      flags.GetString("protocols", "", "DPHIST_PROTOCOLS"),
      {"text", "binary"});

  auto strategy = ParseStrategyKind(strategy_name);
  DPHIST_CHECK_MSG(strategy.ok(), "bad --strategy");

  Rng data_rng(seed);
  Histogram data =
      Histogram::FromCounts(ZipfCounts(n, 1.1, 5 * n, &data_rng));

  struct Run {
    std::string protocol;
    std::int64_t connections;
    double qps;
    double per_batch_us;
    double seconds;
    std::uint64_t queries;
  };
  std::vector<Run> runs;
  for (const std::string& protocol : protocols) {
    DPHIST_CHECK_MSG(protocol == "text" || protocol == "binary",
                     "bad --protocols entry");
    for (const std::int64_t connections : connections_list) {
      std::vector<Run> samples;
      for (std::int64_t repeat = 0; repeat < std::max<std::int64_t>(
               repeats, 1); ++repeat) {
      // A fresh service + manager + listener per configuration, so
      // no state leaks between runs.
      QueryService service;
      runtime::EpochManagerOptions manager_options;
      manager_options.base.epsilon = epsilon;
      manager_options.base.strategy = strategy.value();
      runtime::EpochManager manager(&service, data, manager_options, seed);
      DPHIST_CHECK_MSG(manager.PublishInitial().ok(),
                       "initial publish failed");
      runtime::TransportOptions transport;
      transport.port = 0;
      transport.max_sessions = connections;
      transport.backlog = static_cast<int>(std::max<std::int64_t>(
          connections, 128));
      transport.workers = static_cast<int>(workers);
      runtime::SocketServer server(service, manager, transport);
      DPHIST_CHECK_MSG(server.Start().ok(), "listener failed to start");

      // Equal total work per configuration (measure * 4 batches spread
      // over the in-flight lanes, floor 8 rounds each): every run
      // measures a comparable wall-clock window, so the
      // single-connection number is not a shorter — and noisier —
      // sample than the wide ones.
      const std::int64_t rounds = std::max<std::int64_t>(
          measure * 4 / (connections * pipeline), 8);
      const std::int64_t warmup_rounds = std::clamp<std::int64_t>(
          warmup * 4 / connections, 2, warmup);
      const std::int64_t threads =
          std::min<std::int64_t>(connections, client_threads);
      StartGate gate(static_cast<int>(threads));

      std::vector<ThreadResult> results(static_cast<std::size_t>(threads));
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (std::int64_t t = 0; t < threads; ++t) {
        // Spread the remainder over the first few threads.
        const std::int64_t share =
            connections / threads + (t < connections % threads ? 1 : 0);
        const std::uint64_t thread_seed =
            seed + 100 + static_cast<std::uint64_t>(t);
        pool.emplace_back([&, t, share, thread_seed] {
          results[static_cast<std::size_t>(t)] =
              protocol == "binary"
                  ? RunBinaryThread(&gate, server.port(), share, n, batch,
                                    pipeline, warmup_rounds, rounds,
                                    thread_seed)
                  : RunTextThread(&gate, server.port(), share, n, batch,
                                  pipeline, warmup_rounds, rounds,
                                  thread_seed);
        });
      }
      for (std::thread& thread : pool) thread.join();
      server.WaitUntilStopped();
      const runtime::SocketServer::Stats stats = server.stats();
      DPHIST_CHECK_MSG(stats.session_errors == 0, "session errors");
      DPHIST_CHECK_MSG(stats.write_errors == 0, "write errors");

      Run run{protocol, connections, 0.0, 0.0, 0.0, 0};
      for (const ThreadResult& result : results) {
        DPHIST_CHECK_MSG(result.ok, "client thread failed");
        run.seconds = std::max(run.seconds, result.seconds);
        run.queries += result.queries;
      }
      run.qps = static_cast<double>(run.queries) / run.seconds;
      run.per_batch_us = static_cast<double>(batch) * 1e6 / run.qps;
      samples.push_back(run);
      }
      // Median sample by qps.
      std::sort(samples.begin(), samples.end(),
                [](const Run& a, const Run& b) { return a.qps < b.qps; });
      const Run& run = samples[samples.size() / 2];
      runs.push_back(run);
      std::fprintf(
          stderr,
          "%s connections=%lld: %llu queries in %.3fs -> %.4g q/s "
          "(%.3g us/batch)\n",
          protocol.c_str(), static_cast<long long>(run.connections),
          static_cast<unsigned long long>(run.queries), run.seconds,
          run.qps, run.per_batch_us);
    }
  }

  // Per-protocol endpoints for the summary block.
  auto find_run = [&](const std::string& protocol,
                      std::int64_t connections) -> const Run* {
    for (const Run& run : runs) {
      if (run.protocol == protocol && run.connections == connections) {
        return &run;
      }
    }
    return nullptr;
  };
  const std::int64_t min_connections =
      *std::min_element(connections_list.begin(), connections_list.end());
  const std::int64_t max_connections =
      *std::max_element(connections_list.begin(), connections_list.end());
  // The headline protocol: binary when it ran, text otherwise.
  const std::string headline =
      find_run("binary", min_connections) != nullptr ? "binary" : "text";
  const Run* head_min = find_run(headline, min_connections);
  const Run* head_max = find_run(headline, max_connections);
  DPHIST_CHECK_MSG(head_min != nullptr && head_max != nullptr,
                   "sweep produced no runs");

  std::printf("{\n");
  std::printf("  \"benchmark\": \"socket_serve\",\n");
  std::printf("  \"build\": \"%s\",\n",
#ifdef NDEBUG
              "Release"
#else
              "Debug"
#endif
  );
  std::printf("  \"transport\": \"worker_pool\",\n");
  std::printf("  \"domain_log2\": %lld,\n",
              static_cast<long long>(domain_log2));
  std::printf("  \"strategy\": \"%s\",\n",
              StrategyKindName(strategy.value()));
  std::printf("  \"epsilon\": %g,\n", epsilon);
  std::printf("  \"batch\": %lld,\n", static_cast<long long>(batch));
  std::printf("  \"pipeline_depth\": %lld,\n",
              static_cast<long long>(pipeline));
  std::printf("  \"measure_batches_per_client\": %lld,\n",
              static_cast<long long>(measure));
  std::printf("  \"client_threads\": %lld,\n",
              static_cast<long long>(client_threads));
  std::printf("  \"repeats_median_of\": %lld,\n",
              static_cast<long long>(repeats));
  std::printf("  \"server_workers\": %lld,\n",
              static_cast<long long>(workers));
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf(
        "    {\"protocol\": \"%s\", \"connections\": %lld, "
        "\"aggregate_qps\": %.6g, \"per_batch_us\": %.6g, "
        "\"seconds\": %.6g, \"queries\": %llu}%s\n",
        runs[i].protocol.c_str(),
        static_cast<long long>(runs[i].connections), runs[i].qps,
        runs[i].per_batch_us, runs[i].seconds,
        static_cast<unsigned long long>(runs[i].queries),
        i + 1 < runs.size() ? "," : "");
  }
  std::printf("  ],\n");
  // PR 5's blocking thread-per-connection transport, measured on this
  // same 1-core container with the same flags (text protocol, batch 64)
  // before the worker-pool rewrite — kept so the transition stays
  // visible next to the current numbers.
  std::printf("  \"baseline_thread_per_connection\": {\n");
  std::printf("    \"note\": \"PR 5 blocking transport, text protocol\",\n");
  std::printf("    \"runs\": [\n");
  std::printf(
      "      {\"connections\": 1, \"aggregate_qps\": 764797},\n");
  std::printf(
      "      {\"connections\": 4, \"aggregate_qps\": 745681}\n");
  std::printf("    ],\n");
  std::printf("    \"scaling_max_over_min\": 0.975\n");
  std::printf("  },\n");
  std::printf("  \"summary\": {\n");
  std::printf("    \"headline_protocol\": \"%s\",\n", headline.c_str());
  std::printf("    \"min_connections\": %lld,\n",
              static_cast<long long>(min_connections));
  std::printf("    \"max_connections\": %lld,\n",
              static_cast<long long>(max_connections));
  std::printf("    \"qps_at_min_connections\": %.6g,\n", head_min->qps);
  std::printf("    \"qps_at_max_connections\": %.6g,\n", head_max->qps);
  std::printf("    \"scaling_max_over_min\": %.4g",
              head_max->qps / head_min->qps);
  if (const Run* head_128 = find_run(headline, 128);
      head_128 != nullptr && max_connections != 128) {
    std::printf(",\n    \"qps_at_128_connections\": %.6g,\n",
                head_128->qps);
    std::printf("    \"scaling_128_over_min\": %.4g",
                head_128->qps / head_min->qps);
  }
  const Run* text_min = find_run("text", min_connections);
  const Run* binary_min = find_run("binary", min_connections);
  if (text_min != nullptr && binary_min != nullptr) {
    std::printf(",\n");
    std::printf("    \"text_per_batch_us\": %.6g,\n",
                text_min->per_batch_us);
    std::printf("    \"binary_per_batch_us\": %.6g,\n",
                binary_min->per_batch_us);
    // > 1 means the binary protocol answers a batch faster than text.
    std::printf("    \"binary_speedup_per_batch\": %.4g\n",
                text_min->per_batch_us / binary_min->per_batch_us);
  } else {
    std::printf("\n");
  }
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
