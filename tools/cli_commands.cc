#include "tools/cli_commands.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/csv.h"
#include "paper/data/nettrace.h"
#include "paper/data/search_logs.h"
#include "paper/data/social_network.h"
#include "domain/histogram.h"
#include "engine/answer_engine.h"
#include "engine/kernels.h"
#include "paper/estimators/unattributed.h"
#include "estimators/universal.h"
#include "mechanism/privacy_accountant.h"
#include "planner/planner.h"
#include "planner/workload_profile.h"
#include "runtime/epoch_manager.h"
#include "runtime/serving_loop.h"
#include "runtime/session.h"
#include "runtime/transport.h"
#include "service/query_service.h"
#include "service/snapshot.h"
#include "storage/epoch_store.h"
#include "tools/lint/lint.h"

namespace dphist::cli {
namespace {

constexpr char kUsage[] =
    "usage: dphist_cli <command> [flags]\n"
    "\n"
    "commands:\n"
    "  generate          --dataset nettrace|social|searchlogs --output P\n"
    "                    [--size N] [--seed S]\n"
    "  release-universal --input P --output P --epsilon E [--branching K]\n"
    "                    [--no-prune] [--no-round] [--seed S]\n"
    "  release-sorted    --input P --output P --epsilon E [--seed S]\n"
    "  query             --release P --lo X --hi Y\n"
    "  serve             --input P --epsilon E\n"
    "                    (--queries P | --stdin | --listen PORT)\n"
    "                    [--strategy hbar|htilde|ltilde|wavelet|auto]\n"
    "                    [--branching K] [--shards S]\n"
    "                    [--build-threads B] [--seed S]\n"
    "                    [--no-round] [--no-prune] [--max-shards M]\n"
    "                    [--strategies a,b,c] [--objective mean|worst]\n"
    "                                               (auto planning)\n"
    "                    [--replan-every N] [--replan-drift X]\n"
    "                    [--drift-check-every N] [--replan-sync]\n"
    "                    [--reservoir N] [--epsilon-budget B]\n"
    "                    [--state-dir D]  (durable WAL + snapshot:\n"
    "                     restart resumes the epsilon ledger and the\n"
    "                     last published epoch bit-identically)\n"
    "                    [--max-sessions N] [--port-file P]\n"
    "                    [--workers N] [--bind-addr A] [--auth-token T]\n"
    "                                                  (--listen)\n"
    "                    (--stdin REPL: q lo hi | qb k lo hi ... |\n"
    "                     stats | replan | quit)\n"
    "                    (--listen 0 picks an ephemeral port; every\n"
    "                     connection is its own session — text REPL or\n"
    "                     binary frames — multiplexed onto a fixed pool\n"
    "                     of --workers readiness-loop threads over one\n"
    "                     shared release lifecycle)\n"
    "                    (every answer is recomputed from the published\n"
    "                     release; nothing is cached)\n"
    "  client            --port P [--host A] [--auth-token T] [--binary]\n"
    "                    [--queries P]  (else reads commands from stdin)\n"
    "                    (drives one serve --listen session and prints\n"
    "                     the transcript; --binary speaks the pipelined\n"
    "                     frame protocol and renders the same transcript\n"
    "                     a text session would produce)\n"
    "  plan              --queries P --epsilon E (--input P | --domain N)\n"
    "                    [--branching K] [--max-shards M]\n"
    "                    [--strategies a,b,c] [--objective mean|worst]\n"
    "  recover           --state-dir D [--inspect]\n"
    "                    (replay a serve --state-dir directory offline:\n"
    "                     ledger total, last epoch, persisted snapshot;\n"
    "                     --inspect lists every WAL spend record)\n"
    "  lint              [--root D] [--config P] [--baseline P]\n"
    "                    [--write-baseline] [--summary-md P]\n"
    "                    (repo invariant checker over root/src: serving-\n"
    "                     path asserts, hot-file allocations, unguarded\n"
    "                     mutexes, non-Status factories, core includes\n"
    "                     of paper/ headers; ratcheted baseline — see\n"
    "                     tools/lint/lint.h)\n"
    "\n"
    "Every command rejects a flag it does not read.\n";

/// True for the errors that say the command line itself is wrong: an
/// unknown command, an unknown flag or a missing required flag. Only
/// these print the usage text; a malformed value or a bad input file
/// prints its one-line diagnostic alone.
bool WantsUsage(const Status& status) {
  if (status.code() != StatusCode::kInvalidArgument) return false;
  const std::string& message = status.message();
  for (const char* prefix :
       {"unknown command: ", "unknown flag --", "missing required flag --"}) {
    if (message.starts_with(prefix)) return true;
  }
  return false;
}

Status RequireFlag(const Flags& flags, const std::string& name) {
  if (!flags.Has(name)) {
    return Status::InvalidArgument("missing required flag --" + name);
  }
  return Status::Ok();
}

/// Parses the integer flag `name` (`fallback` when absent) into *out.
Status ReadInt(const Flags& flags, const std::string& name,
               std::int64_t fallback, std::int64_t* out) {
  Result<std::int64_t> value = flags.ParseInt(name, fallback);
  if (!value.ok()) return value.status();
  *out = value.value();
  return Status::Ok();
}

/// Parses the numeric flag `name` (`fallback` when absent) into *out.
Status ReadDouble(const Flags& flags, const std::string& name,
                  double fallback, double* out) {
  Result<double> value = flags.ParseDouble(name, fallback);
  if (!value.ok()) return value.status();
  *out = value.value();
  return Status::Ok();
}

/// Parses the boolean flag `name` (false when absent) into *out.
Status ReadBool(const Flags& flags, const std::string& name, bool* out) {
  Result<bool> value = flags.ParseBool(name, false);
  if (!value.ok()) return value.status();
  *out = value.value();
  return Status::Ok();
}

/// The first error among `parsed`, each the Status of one ReadInt,
/// ReadDouble or ReadBool; commands parse every number and boolean
/// before they read, write, publish or bind anything.
Status FirstError(std::initializer_list<Status> parsed) {
  for (const Status& status : parsed) {
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

/// Parses a comma-separated strategy list ("ltilde,hbar").
Result<std::vector<StrategyKind>> ParseStrategiesList(
    const std::string& csv) {
  std::vector<StrategyKind> strategies;
  std::string token;
  std::istringstream stream(csv);
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    auto kind = ParseStrategyKind(token);
    if (!kind.ok()) return kind.status();
    if (kind.value() == StrategyKind::kAuto) {
      return Status::InvalidArgument(
          "auto cannot be a candidate strategy in --strategies");
    }
    strategies.push_back(kind.value());
  }
  if (strategies.empty()) {
    return Status::InvalidArgument("empty --strategies list");
  }
  return strategies;
}

/// Shared `plan`/`serve` planner knobs from flags.
Status FillPlannerOptions(const Flags& flags,
                          planner::PlannerOptions* options) {
  Status parsed = ReadInt(flags, "max-shards", 64, &options->max_shards);
  if (!parsed.ok()) return parsed;
  if (options->max_shards < 1) {
    return Status::InvalidArgument("max-shards must be >= 1");
  }
  if (flags.Has("strategies")) {
    auto strategies = ParseStrategiesList(flags.GetString("strategies", ""));
    if (!strategies.ok()) return strategies.status();
    options->strategies = strategies.value();
  }
  const std::string objective = flags.GetString("objective", "mean");
  if (objective == "worst") {
    options->minimize_worst_case = true;
  } else if (objective != "mean") {
    return Status::InvalidArgument("objective must be mean or worst");
  }
  return Status::Ok();
}

/// Reads the `--queries` file through the session grammar: the script
/// `serve` answers and the workload `plan` profiles.
Result<runtime::SessionScript> ReadQueryFile(const Flags& flags,
                                             std::int64_t domain_size) {
  const std::string path = flags.GetString("queries", "");
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot open query file: " + path);
  return runtime::ReadSessionScript(file, domain_size);
}

}  // namespace

Status RunGenerate(const Flags& flags, std::ostream& out) {
  Status known = flags.CheckKnown({"dataset", "output", "seed", "size"});
  if (!known.ok()) return known;
  for (const char* required : {"dataset", "output"}) {
    Status s = RequireFlag(flags, required);
    if (!s.ok()) return s;
  }
  std::string dataset = flags.GetString("dataset", "");
  std::string output = flags.GetString("output", "");
  std::int64_t seed = 42;
  std::int64_t size = 0;
  Status parsed = FirstError({ReadInt(flags, "seed", 42, &seed),
                              ReadInt(flags, "size", 0, &size)});
  if (!parsed.ok()) return parsed;

  Histogram data = Histogram::FromCounts({0});
  if (dataset == "nettrace") {
    NetTraceConfig config;
    if (size > 0) {
      config.num_hosts = size;
      config.num_connections = size * 5;
    }
    config.seed = static_cast<std::uint64_t>(seed);
    data = GenerateNetTrace(config);
  } else if (dataset == "social") {
    SocialNetworkConfig config;
    if (size > 0) config.num_nodes = size;
    config.seed = static_cast<std::uint64_t>(seed);
    data = GenerateSocialNetworkDegrees(config);
  } else if (dataset == "searchlogs") {
    TemporalSeriesConfig config;
    if (size > 0) config.num_slots = size;
    config.seed = static_cast<std::uint64_t>(seed);
    data = GenerateTemporalSeries(config);
  } else {
    return Status::InvalidArgument("unknown dataset: " + dataset);
  }
  Status s = SaveHistogramCsv(data, output);
  if (!s.ok()) return s;
  out << "wrote " << data.size() << " counts (total " << data.Total()
      << ") to " << output << "\n";
  return Status::Ok();
}

Status RunReleaseUniversal(const Flags& flags, std::ostream& out) {
  Status known = flags.CheckKnown({"input", "output", "epsilon", "branching",
                                   "no-prune", "no-round", "seed"});
  if (!known.ok()) return known;
  for (const char* required : {"input", "output", "epsilon"}) {
    Status s = RequireFlag(flags, required);
    if (!s.ok()) return s;
  }
  UniversalOptions options;
  std::int64_t seed = 42;
  bool no_prune = false;
  bool no_round = false;
  Status parsed =
      FirstError({ReadDouble(flags, "epsilon", 1.0, &options.epsilon),
                  ReadInt(flags, "branching", 2, &options.branching),
                  ReadInt(flags, "seed", 42, &seed),
                  ReadBool(flags, "no-prune", &no_prune),
                  ReadBool(flags, "no-round", &no_round)});
  if (!parsed.ok()) return parsed;
  auto data = LoadHistogramCsv(flags.GetString("input", ""));
  if (!data.ok()) return data.status();

  // The one-shard H-bar release this command draws, as the gate sees it.
  SnapshotOptions gated;
  gated.epsilon = options.epsilon;
  gated.branching = options.branching;
  Status valid = CheckReleaseOptions(gated, data.value().size());
  if (!valid.ok()) return valid;
  options.prune_nonpositive_subtrees = !no_prune;
  options.round_to_nonnegative_integers = !no_round;

  Rng rng(static_cast<std::uint64_t>(seed));
  HBarEstimator estimator(data.value(), options, &rng);
  Histogram release(estimator.leaf_estimates(),
                    data.value().domain().attribute());
  Status s = SaveHistogramCsv(release, flags.GetString("output", ""));
  if (!s.ok()) return s;
  out << "released eps=" << options.epsilon << " universal histogram over "
      << release.size() << " positions (tree height "
      << estimator.tree().height() << ") to "
      << flags.GetString("output", "") << "\n";
  return Status::Ok();
}

Status RunReleaseSorted(const Flags& flags, std::ostream& out) {
  Status known = flags.CheckKnown({"input", "output", "epsilon", "seed"});
  if (!known.ok()) return known;
  for (const char* required : {"input", "output", "epsilon"}) {
    Status s = RequireFlag(flags, required);
    if (!s.ok()) return s;
  }
  double epsilon = 1.0;
  std::int64_t seed = 42;
  Status parsed = FirstError({ReadDouble(flags, "epsilon", 1.0, &epsilon),
                              ReadInt(flags, "seed", 42, &seed)});
  if (!parsed.ok()) return parsed;
  auto data = LoadHistogramCsv(flags.GetString("input", ""));
  if (!data.ok()) return data.status();
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<double> noisy =
      SampleNoisySortedCounts(data.value(), epsilon, &rng);
  std::vector<double> sbar =
      ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy);
  Histogram release(std::move(sbar), "rank");
  Status s = SaveHistogramCsv(release, flags.GetString("output", ""));
  if (!s.ok()) return s;
  out << "released eps=" << epsilon << " sorted histogram of "
      << release.size() << " counts to " << flags.GetString("output", "")
      << "\n";
  return Status::Ok();
}

Status RunQuery(const Flags& flags, std::ostream& out) {
  Status known = flags.CheckKnown({"release", "lo", "hi"});
  if (!known.ok()) return known;
  for (const char* required : {"release", "lo", "hi"}) {
    Status s = RequireFlag(flags, required);
    if (!s.ok()) return s;
  }
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  Status parsed = FirstError(
      {ReadInt(flags, "lo", 0, &lo), ReadInt(flags, "hi", 0, &hi)});
  if (!parsed.ok()) return parsed;
  auto release = LoadHistogramCsv(flags.GetString("release", ""));
  if (!release.ok()) return release.status();
  if (lo > hi || lo < 0 || hi >= release.value().size()) {
    return Status::OutOfRange("query range out of bounds");
  }
  const std::streamsize old_precision = out.precision(15);
  out << release.value().Count(Interval(lo, hi)) << "\n";
  out.precision(old_precision);
  return Status::Ok();
}

Status RunServe(const Flags& flags, std::istream& in, std::ostream& out) {
  Status known = flags.CheckKnown(
      {"input", "epsilon", "queries", "stdin", "listen", "strategy",
       "branching", "shards", "no-round", "no-prune", "build-threads",
       "reservoir", "max-shards", "strategies", "objective", "replan-every",
       "replan-drift", "drift-check-every", "replan-sync", "epsilon-budget",
       "state-dir", "seed", "max-sessions", "port-file", "workers",
       "bind-addr", "auth-token"});
  if (!known.ok()) return known;
  for (const char* required : {"input", "epsilon"}) {
    Status s = RequireFlag(flags, required);
    if (!s.ok()) return s;
  }
  SnapshotOptions options;
  QueryServiceOptions service_options;
  runtime::EpochManagerOptions manager_options;
  std::int64_t seed = 42;
  std::int64_t port = 0;
  std::int64_t max_sessions = 0;
  std::int64_t workers = 2;
  bool streaming = false;
  bool no_round = false;
  bool no_prune = false;
  bool replan_sync = false;
  Status parsed = FirstError(
      {ReadDouble(flags, "epsilon", 1.0, &options.epsilon),
       ReadInt(flags, "branching", 2, &options.branching),
       ReadInt(flags, "shards", 1, &options.shards),
       ReadInt(flags, "build-threads", 1, &options.build_threads),
       ReadInt(flags, "reservoir", 0, &service_options.observed_reservoir),
       ReadInt(flags, "replan-every", 0, &manager_options.replan_every),
       ReadDouble(flags, "replan-drift", 0.0, &manager_options.drift_ratio),
       ReadInt(flags, "drift-check-every", 256,
               &manager_options.drift_check_every),
       ReadDouble(flags, "epsilon-budget", 0.0,
                  &manager_options.epsilon_budget),
       ReadInt(flags, "seed", 42, &seed), ReadInt(flags, "listen", 0, &port),
       ReadInt(flags, "max-sessions", 0, &max_sessions),
       ReadInt(flags, "workers", 2, &workers),
       ReadBool(flags, "stdin", &streaming),
       ReadBool(flags, "no-round", &no_round),
       ReadBool(flags, "no-prune", &no_prune),
       ReadBool(flags, "replan-sync", &replan_sync)});
  if (!parsed.ok()) return parsed;
  const bool listening = flags.Has("listen");
  if ((streaming && listening) ||
      (listening && flags.Has("queries")) ||
      (streaming && flags.Has("queries"))) {
    return Status::InvalidArgument(
        "--queries, --stdin, and --listen are exclusive");
  }
  if (!streaming && !listening) {
    Status s = RequireFlag(flags, "queries");
    if (!s.ok()) return s;
  }
  auto data = LoadHistogramCsv(flags.GetString("input", ""));
  if (!data.ok()) return data.status();
  const std::int64_t n = data.value().size();

  auto strategy = ParseStrategyKind(flags.GetString("strategy", "hbar"));
  if (!strategy.ok()) return strategy.status();
  options.strategy = strategy.value();
  Status valid = CheckReleaseOptions(options, n);
  if (!valid.ok()) return valid;
  options.round_to_nonnegative_integers = !no_round;
  options.prune_nonpositive_subtrees = !no_prune;

  if (service_options.observed_reservoir < 0) {
    return Status::InvalidArgument("reservoir must be >= 0");
  }
  Status planner_status = FillPlannerOptions(flags, &manager_options.planner);
  if (!planner_status.ok()) return planner_status;

  manager_options.base = options;
  manager_options.async = !replan_sync;
  if (manager_options.replan_every < 0 ||
      manager_options.drift_ratio < 0.0 ||
      manager_options.drift_check_every < 1 ||
      manager_options.epsilon_budget < 0.0) {
    return Status::InvalidArgument(
        "replan-every/replan-drift/epsilon-budget must be >= 0 and "
        "drift-check-every >= 1");
  }

  // --state-dir makes the lifecycle durable: every budget spend hits the
  // WAL before its release becomes visible, and a restart replays the
  // ledger and re-serves the last persisted epoch bit-identically.
  std::unique_ptr<storage::EpochStore> store;
  if (flags.Has("state-dir")) {
    auto opened = storage::EpochStore::Open(flags.GetString("state-dir", ""));
    if (!opened.ok()) return opened.status();
    store = std::move(opened).value();
    manager_options.store = store.get();
  }

  QueryService service(service_options);
  runtime::EpochManager manager(&service, data.value(), manager_options,
                                static_cast<std::uint64_t>(seed));
  runtime::SessionWriter writer(out);

  // With a state directory, recovery runs first: a restored snapshot is
  // re-served as-is (no fresh epsilon spent), and only a fresh/empty
  // directory falls through to a first publish — which the replayed
  // ledger still gates, so a restart can never overshoot the budget.
  auto publish_initial = [&](const planner::WorkloadProfile* profile)
      -> Result<runtime::ReplanOutcome> {
    if (store != nullptr) {
      Result<runtime::ReplanOutcome> recovered = manager.Recover();
      if (!recovered.ok()) return recovered;
      if (recovered.value().republished) {
        out << "# recovered epoch=" << recovered.value().epoch
            << " epsilon_spent=" << manager.stats().epsilon_spent
            << " from " << store->dir() << "\n";
        return recovered;
      }
    }
    return manager.PublishInitial(profile);
  };

  runtime::SessionSummary summary;
  Result<runtime::ReplanOutcome> initial = Status::Internal("unset");
  if (listening) {
    // Network mode: publish once, then let the socket transport fan
    // accepted connections into streaming sessions over this one
    // service + manager. Each connection greets and reports on its own
    // socket; `out` only carries the listener lifecycle lines.
    if (port < 0 || port > 65535) {
      return Status::InvalidArgument("listen port must be in [0, 65535]");
    }
    if (max_sessions < 0) {
      return Status::InvalidArgument("max-sessions must be >= 0");
    }
    if (workers < 1 || workers > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("workers must be in [1, 2^31 - 1]");
    }
    runtime::TransportOptions transport_options;
    transport_options.port = static_cast<int>(port);
    transport_options.max_sessions = max_sessions;
    transport_options.workers = static_cast<int>(workers);
    transport_options.bind_addr =
        flags.GetString("bind-addr", "127.0.0.1");
    transport_options.auth_token = flags.GetString("auth-token", "");

    initial = publish_initial(nullptr);
    if (!initial.ok()) return initial.status();
    runtime::SocketServer server(service, manager, transport_options);
    Status started = server.Start();
    if (!started.ok()) return started;

    const Snapshot& snap = *initial.value().snapshot;
    out << "# listening port=" << server.port() << " n=" << n
        << " epoch=" << snap.epoch() << " strategy="
        << StrategyKindName(snap.strategy()) << " eps=" << snap.epsilon()
        << "\n";
    out.flush();
    // Scripts read the resolved port from --port-file instead of
    // scraping stdout (the CI smoke and the in-process CLI test do).
    if (flags.Has("port-file")) {
      std::ofstream port_file(flags.GetString("port-file", ""));
      if (!port_file) {
        server.Stop();
        return Status::IoError("cannot write port file");
      }
      port_file << server.port() << "\n";
    }

    if (transport_options.max_sessions > 0) {
      // Bounded run: exit once the configured number of sessions has
      // been served (the deterministic shape CI and tests rely on).
      server.WaitUntilStopped();
    } else {
      // Unbounded run: `in` (stdin) is the shutdown control — EOF or a
      // "quit" line stops the listener.
      std::string line;
      while (std::getline(in, line)) {
        if (line == "quit") break;
      }
    }
    server.Stop();

    const runtime::SocketServer::Stats tstats = server.stats();
    out << "# served " << tstats.queries << " queries over "
        << tstats.completed << " sessions (errors=" << tstats.session_errors
        << " write_errors=" << tstats.write_errors
        << " auth_failures=" << tstats.auth_failures
        << " text=" << tstats.text_sessions
        << " binary=" << tstats.binary_sessions
        << " batches=" << tstats.batches
        << " replans_announced=" << tstats.replans_announced
        << " engine_kernel="
        << engine::KernelKindName(engine::ActiveKernel())
        << " engine_batches=" << engine::GlobalEngineCounters().total_batches()
        << " engine_queries=" << engine::GlobalEngineCounters().total_queries()
        << ")\n";
    return Status::Ok();
  }
  if (streaming) {
    // REPL over `in`: publish first (auto plans against whatever has
    // been observed — nothing yet, so the neutral geometric sweep),
    // greet, then serve until quit/EOF. Replans land mid-session.
    initial = publish_initial(nullptr);
    if (!initial.ok()) return initial.status();
    const Snapshot& snap = *initial.value().snapshot;
    runtime::WriteServingBanner(writer, snap);
    if (initial.value().planned) {
      writer.PlanNote(initial.value().plan, snap.epoch(), "initial");
    }
    writer.Flush();
    auto session = runtime::RunStreamingSession(in, writer, service, manager);
    if (!session.ok()) return session.status();
    summary = session.value();
  } else {
    // Batch mode: one parse pass through the session grammar (the
    // workload-file format is its bare-range subset), profile built
    // from the whole script — the best picture of the workload a
    // planner will ever get — then the scripted loop answers each run
    // of single-range queries as one batch.
    auto script = ReadQueryFile(flags, n);
    if (!script.ok()) return script.status();

    planner::WorkloadProfile profile(n);
    if (options.strategy == StrategyKind::kAuto) {
      for (const Interval& query : script.value().ranges) {
        profile.AddQuery(query);
      }
    }
    initial = publish_initial(profile.empty() ? nullptr : &profile);
    if (!initial.ok()) return initial.status();
    auto session =
        runtime::RunScriptedSession(script.value(), writer, service, manager);
    if (!session.ok()) return session.status();
    summary = session.value();
  }

  std::shared_ptr<const Snapshot> current = service.snapshot();
  const std::uint64_t report_epoch =
      summary.last_epoch != 0 ? summary.last_epoch : current->epoch();
  // Report the *resolved* strategy: with --strategy auto this is the
  // planner's choice, otherwise it echoes the flag.
  out << "# served " << summary.queries << " queries from epoch "
      << report_epoch << " (" << StrategyKindName(current->strategy())
      << ", eps=" << options.epsilon << ", shards="
      << current->shard_count()
      << ", engine_kernel=" << engine::KernelKindName(engine::ActiveKernel())
      << " engine_batches=" << engine::GlobalEngineCounters().total_batches()
      << " engine_queries=" << engine::GlobalEngineCounters().total_queries()
      << ")\n";
  if (!streaming && initial.value().planned) {
    writer.PlanNote(initial.value().plan, initial.value().epoch, "initial");
  }
  return Status::Ok();
}

namespace {

/// Renders one server push/reply frame the way a text session transcript
/// would, so a binary client's output projects onto a text client's.
void RenderFrame(const runtime::BinaryClient::OwnedFrame& frame,
                 bool batch_receipt, std::ostream& out) {
  namespace wire = runtime::wire;
  switch (frame.type) {
    case wire::FrameType::kAnswers: {
      wire::AnswersFrame answers;
      if (!wire::ParseAnswers(frame.payload, &answers).ok()) {
        out << "error: malformed ANSWERS frame\n";
        return;
      }
      std::string lines;
      for (double value : answers.values) {
        runtime::AppendAnswerLine(value, &lines);
      }
      out << lines;
      if (batch_receipt) {
        out << "# batch n=" << answers.values.size()
            << " epoch=" << answers.epoch << "\n";
      }
      return;
    }
    case wire::FrameType::kPlan: {
      wire::PlanFrame plan;
      if (!wire::ParsePlan(frame.payload, &plan).ok()) {
        out << "error: malformed PLAN frame\n";
        return;
      }
      const std::streamsize old_precision = out.precision(6);
      out << "# planned strategy=" << plan.strategy
          << " shards=" << plan.shards << " epoch=" << plan.epoch
          << " reason=" << plan.reason
          << " predicted_mean_var=" << plan.predicted_mean_var << "\n";
      out.precision(old_precision);
      return;
    }
    case wire::FrameType::kStatsText: {
      wire::StatsTextFrame stats;
      if (!wire::ParseStatsText(frame.payload, &stats).ok()) {
        out << "error: malformed STATS_TEXT frame\n";
        return;
      }
      out << "# " << stats.text << "\n";
      return;
    }
    case wire::FrameType::kNote: {
      std::string text;
      if (!wire::ParseNote(frame.payload, &text).ok()) {
        out << "error: malformed NOTE frame\n";
        return;
      }
      out << "# " << text << "\n";
      return;
    }
    case wire::FrameType::kError: {
      wire::ErrorFrame error;
      if (!wire::ParseError(frame.payload, &error).ok()) {
        out << "error: malformed ERROR frame\n";
        return;
      }
      out << "error: " << error.message << "\n";
      return;
    }
    default:
      out << "error: unexpected frame type "
          << static_cast<int>(frame.type) << "\n";
      return;
  }
}

/// The frame-protocol client session: parse the whole script locally,
/// pipeline every request in one flush, then render replies and pushes
/// in arrival order (which matches the text transcript order — the
/// server polls triggers after each command).
Status RunBinaryClientSession(const std::string& host, int port,
                              const std::string& auth_token,
                              const std::vector<std::string>& lines,
                              std::ostream& out) {
  auto connected = runtime::BinaryClient::Connect(host, port, auth_token);
  if (!connected.ok()) return connected.status();
  std::unique_ptr<runtime::BinaryClient> client =
      std::move(connected).value();
  out << client->banner() << "\n";
  const std::int64_t domain_size =
      static_cast<std::int64_t>(client->hello().domain_size);

  // id -> whether this command was a `qb` (receipt line) or a `q`.
  std::vector<bool> batch_by_id(1, false);
  std::uint64_t next_id = 1;
  std::int64_t line_number = 0;
  bool sent_goodbye = false;
  for (const std::string& line : lines) {
    line_number += 1;
    runtime::SessionCommand command;
    Result<bool> parsed = runtime::ParseSessionLine(line, domain_size,
                                                    line_number, &command);
    if (!parsed.ok()) {
      // Match the text server's behavior for a malformed line: one
      // error line, session continues.
      out << "error: " << parsed.status().ToString() << "\n";
      continue;
    }
    if (!parsed.value()) continue;  // blank or comment
    switch (command.verb) {
      case runtime::SessionVerb::kQuery:
      case runtime::SessionVerb::kBatch:
        client->SendQuery(next_id, /*expect_epoch=*/0,
                          command.ranges.data(), command.ranges.size());
        batch_by_id.push_back(command.verb ==
                              runtime::SessionVerb::kBatch);
        next_id += 1;
        break;
      case runtime::SessionVerb::kStats:
        client->SendStats(next_id);
        batch_by_id.push_back(false);
        next_id += 1;
        break;
      case runtime::SessionVerb::kReplan:
        client->SendReplan(next_id);
        batch_by_id.push_back(false);
        next_id += 1;
        break;
      case runtime::SessionVerb::kQuit:
        client->SendGoodbye();
        sent_goodbye = true;
        break;
    }
    if (sent_goodbye) break;
  }
  if (!sent_goodbye) client->SendGoodbye();
  Status flushed = client->Flush();
  if (!flushed.ok()) return flushed;

  while (true) {
    auto frame = client->ReadFrame();
    if (!frame.ok()) return frame.status();
    if (frame.value().type == runtime::wire::FrameType::kBye) {
      runtime::wire::ByeFrame bye;
      Status parsed =
          runtime::wire::ParseBye(frame.value().payload, &bye);
      if (!parsed.ok()) return parsed;
      out << "# served " << bye.queries << " queries from epoch "
          << bye.epoch << "\n";
      return Status::Ok();
    }
    bool batch_receipt = false;
    if (frame.value().type == runtime::wire::FrameType::kAnswers) {
      runtime::wire::AnswersFrame answers;
      if (runtime::wire::ParseAnswers(frame.value().payload, &answers)
              .ok() &&
          answers.id < batch_by_id.size()) {
        batch_receipt = batch_by_id[answers.id];
      }
    }
    RenderFrame(frame.value(), batch_receipt, out);
  }
}

/// The text-protocol client session: ship the whole script, then echo
/// everything the server says until it closes.
Status RunTextClientSession(const std::string& host, int port,
                            const std::string& auth_token,
                            const std::vector<std::string>& lines,
                            std::ostream& out) {
  auto connected = runtime::ConnectTcp(host, port);
  if (!connected.ok()) return connected.status();
  std::unique_ptr<runtime::SocketStream> stream =
      std::move(connected).value();
  if (!auth_token.empty()) *stream << "auth " << auth_token << "\n";
  bool sent_quit = false;
  for (const std::string& line : lines) {
    *stream << line << "\n";
    if (line == "quit") {
      sent_quit = true;
      break;
    }
  }
  if (!sent_quit) *stream << "quit\n";
  stream->flush();
  if (stream->write_errors() > 0) {
    return Status::IoError("failed to send the session script");
  }
  std::string reply;
  while (std::getline(*stream, reply)) out << reply << "\n";
  return Status::Ok();
}

}  // namespace

Status RunClient(const Flags& flags, std::istream& in, std::ostream& out) {
  Status known =
      flags.CheckKnown({"port", "host", "auth-token", "binary", "queries"});
  if (!known.ok()) return known;
  Status s = RequireFlag(flags, "port");
  if (!s.ok()) return s;
  std::int64_t port = 0;
  bool binary = false;
  s = FirstError(
      {ReadInt(flags, "port", 0, &port), ReadBool(flags, "binary", &binary)});
  if (!s.ok()) return s;
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("port must be in [1, 65535]");
  }
  const std::string host = flags.GetString("host", "127.0.0.1");
  const std::string auth_token = flags.GetString("auth-token", "");

  std::vector<std::string> lines;
  std::string line;
  if (flags.Has("queries")) {
    std::ifstream file(flags.GetString("queries", ""));
    if (!file) {
      return Status::IoError("cannot open query file: " +
                             flags.GetString("queries", ""));
    }
    while (std::getline(file, line)) lines.push_back(line);
  } else {
    while (std::getline(in, line)) lines.push_back(line);
  }

  if (binary) {
    return RunBinaryClientSession(host, static_cast<int>(port), auth_token,
                                  lines, out);
  }
  return RunTextClientSession(host, static_cast<int>(port), auth_token, lines,
                              out);
}

Status RunPlan(const Flags& flags, std::ostream& out) {
  Status known = flags.CheckKnown(
      {"queries", "epsilon", "input", "domain", "branching", "max-shards",
       "strategies", "objective"});
  if (!known.ok()) return known;
  for (const char* required : {"queries", "epsilon"}) {
    Status s = RequireFlag(flags, required);
    if (!s.ok()) return s;
  }
  SnapshotOptions base;
  std::int64_t n = 0;
  Status parsed =
      FirstError({ReadInt(flags, "domain", 0, &n),
                  ReadDouble(flags, "epsilon", 1.0, &base.epsilon),
                  ReadInt(flags, "branching", 2, &base.branching)});
  if (!parsed.ok()) return parsed;
  if (flags.Has("input")) {
    auto data = LoadHistogramCsv(flags.GetString("input", ""));
    if (!data.ok()) return data.status();
    n = data.value().size();
  } else if (flags.Has("domain")) {
    if (n < 1) return Status::InvalidArgument("domain must be >= 1");
  } else {
    return Status::InvalidArgument(
        "plan needs --input (histogram CSV) or --domain (size)");
  }

  Status valid = CheckReleaseOptions(base, n);
  if (!valid.ok()) return valid;

  planner::PlannerOptions planner_options;
  Status s = FillPlannerOptions(flags, &planner_options);
  if (!s.ok()) return s;

  auto script = ReadQueryFile(flags, n);
  if (!script.ok()) return script.status();
  planner::WorkloadProfile profile(n);
  for (const Interval& query : script.value().ranges) profile.AddQuery(query);

  auto plan = planner::ChoosePlan(profile, base, planner_options);
  if (!plan.ok()) return plan.status();
  out << planner::FormatPlanTable(plan.value(), profile);
  return Status::Ok();
}

Status RunRecover(const Flags& flags, std::ostream& out) {
  Status known = flags.CheckKnown({"state-dir", "inspect"});
  if (!known.ok()) return known;
  Status s = RequireFlag(flags, "state-dir");
  if (!s.ok()) return s;
  bool inspect = false;
  s = ReadBool(flags, "inspect", &inspect);
  if (!s.ok()) return s;
  auto store = storage::EpochStore::Open(flags.GetString("state-dir", ""));
  if (!store.ok()) return store.status();
  auto recovered = store.value()->Recover();
  if (!recovered.ok()) return recovered.status();
  const storage::RecoveredState& state = recovered.value();

  // Fold the ledger exactly as a restarted server would, so the total
  // printed here is the total the server will gate against. The budget
  // is irrelevant to the fold; import never re-gates.
  PrivacyAccountant accountant(std::numeric_limits<double>::infinity());
  std::vector<PrivacyAccountant::Entry> ledger = state.ledger;
  Status imported = accountant.ImportLedger(std::move(ledger));
  if (!imported.ok()) return imported;

  const std::streamsize old_precision = out.precision(17);
  out << "# state-dir " << store.value()->dir() << "\n"
      << "ledger_entries " << state.ledger.size() << "\n"
      << "epsilon_spent " << accountant.spent() << "\n"
      << "last_swap_epoch " << state.last_swap_epoch << "\n"
      << "wal_tail_torn " << (state.wal_tail_torn ? 1 : 0) << "\n";
  if (state.snapshot != nullptr) {
    out << "snapshot epoch=" << state.snapshot->epoch()
        << " n=" << state.snapshot->domain_size() << " strategy="
        << StrategyKindName(state.snapshot->strategy())
        << " shards=" << state.snapshot->shard_count()
        << " eps=" << state.snapshot->epsilon() << "\n";
  } else {
    out << "snapshot none\n";
  }
  out << "profile " << (state.profile.has_value() ? "present" : "none")
      << "\n";
  if (inspect) {
    std::size_t index = 0;
    for (const PrivacyAccountant::Entry& entry : state.ledger) {
      out << "spend " << index++ << " eps=" << entry.epsilon << " purpose=\""
          << entry.purpose << "\"\n";
    }
  }
  out.precision(old_precision);
  return Status::Ok();
}

Status RunLint(const Flags& flags, std::ostream& out) {
  Status known = flags.CheckKnown(
      {"root", "config", "baseline", "write-baseline", "summary-md"});
  if (!known.ok()) return known;
  bool write_baseline = false;
  Status parsed = ReadBool(flags, "write-baseline", &write_baseline);
  if (!parsed.ok()) return parsed;
  const std::string root = flags.GetString("root", ".");
  lint::Config config;
  std::string error;
  std::string config_path = flags.GetString("config", "");
  if (config_path.empty()) {
    const std::string candidate = root + "/tools/lint/dphist_lint.conf";
    if (std::ifstream(candidate)) config_path = candidate;
  }
  if (!config_path.empty() &&
      !lint::LoadConfig(config_path, &config, &error)) {
    return Status::InvalidArgument(error);
  }

  std::vector<lint::Finding> findings;
  std::size_t files_scanned = 0;
  if (!lint::LintTree(root, config, &findings, &error, &files_scanned)) {
    return Status::IoError(error);
  }

  const std::string baseline_path =
      flags.GetString("baseline", root + "/" + config.baseline);

  if (write_baseline) {
    std::ofstream baseline_out(baseline_path, std::ios::trunc);
    if (!baseline_out) {
      return Status::IoError("cannot write " + baseline_path);
    }
    baseline_out << lint::FormatBaseline(findings);
    out << "wrote " << findings.size() << " baseline entries to "
        << baseline_path << "\n";
    return Status::Ok();
  }

  std::vector<std::string> baseline_keys;
  if (!lint::LoadBaseline(baseline_path, &baseline_keys, &error)) {
    return Status::IoError(error);
  }
  lint::Report report = lint::ApplyBaseline(findings, baseline_keys);
  report.files_scanned = files_scanned;

  for (const lint::Finding& finding : report.fresh) {
    out << finding.file << ":" << finding.line << ": [" << finding.rule
        << "] " << finding.message << "\n    " << finding.snippet << "\n";
  }
  for (const std::string& key : report.stale) {
    out << "stale baseline entry: " << key << "\n";
  }
  out << lint::FormatTable(report);

  const std::string summary_md = flags.GetString("summary-md", "");
  if (!summary_md.empty()) {
    std::ofstream summary(summary_md, std::ios::app);
    if (!summary) return Status::IoError("cannot write " + summary_md);
    summary << lint::FormatMarkdownTable(report);
  }

  if (!report.fresh.empty() || !report.stale.empty()) {
    return Status::FailedPrecondition(
        "lint: " + std::to_string(report.fresh.size()) +
        " fresh finding(s), " + std::to_string(report.stale.size()) +
        " stale baseline entr(y/ies)");
  }
  return Status::Ok();
}

int Main(int argc, const char* const* argv, std::istream& in,
         std::ostream& out, std::ostream& err) {
  Flags flags = Flags::Parse(argc, argv);
  if (flags.positional().empty()) {
    err << kUsage;
    return 2;
  }
  const std::string& command = flags.positional()[0];
  Status status = Status::InvalidArgument("unknown command: " + command);
  if (command == "generate") {
    status = RunGenerate(flags, out);
  } else if (command == "release-universal") {
    status = RunReleaseUniversal(flags, out);
  } else if (command == "release-sorted") {
    status = RunReleaseSorted(flags, out);
  } else if (command == "query") {
    status = RunQuery(flags, out);
  } else if (command == "serve") {
    status = RunServe(flags, in, out);
  } else if (command == "client") {
    status = RunClient(flags, in, out);
  } else if (command == "plan") {
    status = RunPlan(flags, out);
  } else if (command == "recover") {
    status = RunRecover(flags, out);
  } else if (command == "lint") {
    status = RunLint(flags, out);
  }
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    if (WantsUsage(status)) err << kUsage;
    return 1;
  }
  return 0;
}

int Main(int argc, const char* const* argv, std::ostream& out,
         std::ostream& err) {
  return Main(argc, argv, std::cin, out, err);
}

}  // namespace dphist::cli
