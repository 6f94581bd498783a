#include "tools/cli_commands.h"

#include <algorithm>
#include <deque>
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
    "                    [--strategies a,b,c]      (auto planning)\n"
    "                    [--replan-every N] [--replan-drift X]\n"
    "                     (drift is checked every 256 queries)\n"
    "                    [--replan-sync] [--epsilon-budget B]\n"
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
    "                    (drives one session against a listening serve\n"
    "                     and prints the transcript; --binary speaks the\n"
    "                     pipelined frame protocol and renders the same\n"
    "                     transcript a text session would produce)\n"
    "  plan              --queries P --epsilon E (--input P | --domain N)\n"
    "                    [--branching K] [--max-shards M]\n"
    "                    [--strategies a,b,c]\n"
    "  recover           --state-dir D [--inspect]\n"
    "                    (replay a serve --state-dir directory offline:\n"
    "                     ledger total, last epoch, persisted snapshot;\n"
    "                     --inspect lists every WAL spend record)\n"
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
       "max-shards", "strategies", "replan-every", "replan-drift",
       "replan-sync", "epsilon-budget", "state-dir", "seed", "max-sessions",
       "port-file", "workers", "bind-addr", "auth-token"});
  if (!known.ok()) return known;
  for (const char* required : {"input", "epsilon"}) {
    Status s = RequireFlag(flags, required);
    if (!s.ok()) return s;
  }
  SnapshotOptions options;
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
       ReadInt(flags, "replan-every", 0, &manager_options.replan_every),
       ReadDouble(flags, "replan-drift", 0.0, &manager_options.drift_ratio),
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

  Status planner_status = FillPlannerOptions(flags, &manager_options.planner);
  if (!planner_status.ok()) return planner_status;

  manager_options.base = options;
  manager_options.async = !replan_sync;
  if (manager_options.replan_every < 0 ||
      manager_options.drift_ratio < 0.0 ||
      manager_options.epsilon_budget < 0.0) {
    return Status::InvalidArgument(
        "replan-every/replan-drift/epsilon-budget must be >= 0");
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

  QueryService service;
  // The manager keeps the only copy of the histogram: `data` is not read
  // again (`n` was taken above).
  runtime::EpochManager manager(&service, std::move(data).value(),
                                manager_options,
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
  auto note_initial_plan = [&] {
    const planner::Plan& plan = initial.value().plan;
    writer.PlanNote(StrategyKindName(plan.options.strategy),
                    plan.options.shards, initial.value().epoch, "initial",
                    plan.predicted_mean_variance);
  };
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
    // Read before Start: a connection may replan at once.
    std::shared_ptr<const Snapshot> snap = service.snapshot();
    runtime::SocketServer server(service, manager, transport_options);
    Status started = server.Start();
    if (!started.ok()) return started;

    out << "# listening port=" << server.port() << " n=" << n
        << " epoch=" << snap->epoch() << " strategy="
        << StrategyKindName(snap->strategy()) << " eps=" << snap->epsilon()
        << "\n";
    out.flush();
    snap.reset();  // serving holds no release but the current one
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
    runtime::WriteServingBanner(writer, *service.snapshot());
    if (initial.value().planned) note_initial_plan();
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
        profile.AddLength(query.Length());
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
  // Report the *resolved* strategy of the current release: with
  // --strategy auto this is the planner's choice, otherwise it echoes
  // the flag. A replan after the last batch makes the current release a
  // later epoch than the answers', so that epoch is named.
  out << "# served " << summary.queries << " queries from epoch "
      << report_epoch << " (";
  if (report_epoch != current->epoch()) {
    out << "now epoch " << current->epoch() << ": ";
  }
  out << StrategyKindName(current->strategy())
      << ", eps=" << options.epsilon << ", shards="
      << current->shard_count()
      << ", engine_kernel=" << engine::KernelKindName(engine::ActiveKernel())
      << " engine_batches=" << engine::GlobalEngineCounters().total_batches()
      << " engine_queries=" << engine::GlobalEngineCounters().total_queries()
      << ")\n";
  if (!streaming && initial.value().planned) note_initial_plan();
  return Status::Ok();
}

namespace {

/// Renders one server push/reply frame through `writer` as the text
/// session would have written it, so a binary client's transcript
/// projects onto a text client's.
void RenderFrame(const runtime::BinaryClient::OwnedFrame& frame,
                 bool batch_receipt, runtime::SessionWriter& writer) {
  namespace wire = runtime::wire;
  switch (frame.type) {
    case wire::FrameType::kAnswers: {
      wire::AnswersFrame answers;
      if (!wire::ParseAnswers(frame.payload, &answers).ok()) {
        writer.Error("malformed ANSWERS frame");
        return;
      }
      writer.Answers(answers.values.data(), answers.values.size());
      if (batch_receipt) {
        writer.BatchReceipt(answers.values.size(), answers.epoch);
      }
      return;
    }
    case wire::FrameType::kPlan: {
      wire::PlanFrame plan;
      if (!wire::ParsePlan(frame.payload, &plan).ok()) {
        writer.Error("malformed PLAN frame");
        return;
      }
      writer.PlanNote(plan.strategy, static_cast<std::int64_t>(plan.shards),
                      plan.epoch, plan.reason, plan.predicted_mean_var);
      return;
    }
    case wire::FrameType::kStatsText: {
      wire::StatsTextFrame stats;
      if (!wire::ParseStatsText(frame.payload, &stats).ok()) {
        writer.Error("malformed STATS_TEXT frame");
        return;
      }
      writer.Comment(stats.text);
      return;
    }
    case wire::FrameType::kNote: {
      std::string text;
      if (!wire::ParseNote(frame.payload, &text).ok()) {
        writer.Error("malformed NOTE frame");
        return;
      }
      writer.Comment(text);
      return;
    }
    case wire::FrameType::kError: {
      wire::ErrorFrame error;
      if (!wire::ParseError(frame.payload, &error).ok()) {
        writer.Error("malformed ERROR frame");
        return;
      }
      writer.Error(error.message);
      return;
    }
    default:
      writer.Error("unexpected frame type " +
                   std::to_string(static_cast<int>(frame.type)));
      return;
  }
}

/// The frame-protocol client session: parse the whole script locally,
/// pipeline every request in one flush, then render replies and pushes
/// in arrival order (which matches the text transcript order — the
/// server polls triggers after each command and pushes what landed
/// right after the reply). A malformed line's error is rendered just
/// before the reply to the next request, or before the final receipt:
/// after the replies and pushes above it, where the text server writes
/// it. The server answers in order: a reply is the next ANSWERS,
/// STATS_TEXT or ERROR frame, or — while the oldest unanswered request
/// is a REPLAN — the next PLAN frame of a manual replan (a successful
/// manual replan always republishes; NOTE frames are always pushes).
Status RunBinaryClientSession(const std::string& host, int port,
                              const std::string& auth_token,
                              const std::vector<std::string>& lines,
                              std::ostream& out) {
  namespace wire = runtime::wire;
  auto connected = runtime::BinaryClient::Connect(host, port, auth_token);
  if (!connected.ok()) return connected.status();
  std::unique_ptr<runtime::BinaryClient> client =
      std::move(connected).value();
  runtime::SessionWriter writer(out);
  out << client->banner() << "\n";
  const std::int64_t domain_size =
      static_cast<std::int64_t>(client->hello().domain_size);

  // The unanswered requests in order, each with the errors of the
  // malformed lines just above it.
  struct Request {
    runtime::SessionVerb verb;
    std::vector<std::string> errors_before;
  };
  std::deque<Request> unanswered;
  std::vector<std::string> errors;  // since the last request
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
      errors.push_back(parsed.status().ToString());
      continue;
    }
    if (!parsed.value()) continue;  // blank or comment
    switch (command.verb) {
      case runtime::SessionVerb::kQuery:
      case runtime::SessionVerb::kBatch:
        client->SendQuery(next_id++, /*expect_epoch=*/0,
                          command.ranges.data(), command.ranges.size());
        break;
      case runtime::SessionVerb::kStats:
        client->SendStats(next_id++);
        break;
      case runtime::SessionVerb::kReplan:
        client->SendReplan(next_id++);
        break;
      case runtime::SessionVerb::kQuit:
        client->SendGoodbye();
        sent_goodbye = true;
        break;
    }
    if (sent_goodbye) break;
    unanswered.push_back({command.verb, std::move(errors)});
    errors.clear();
  }
  if (!sent_goodbye) client->SendGoodbye();
  Status flushed = client->Flush();
  if (!flushed.ok()) return flushed;

  auto render_errors = [&writer](const std::vector<std::string>& messages) {
    for (const std::string& error : messages) writer.Error(error);
  };
  while (true) {
    auto frame = client->ReadFrame();
    if (!frame.ok()) return frame.status();
    const wire::FrameType type = frame.value().type;
    if (type == wire::FrameType::kBye) {
      wire::ByeFrame bye;
      Status parsed = wire::ParseBye(frame.value().payload, &bye);
      if (!parsed.ok()) return parsed;
      render_errors(errors);
      writer.ServedReceipt(bye.queries, bye.epoch);
      return Status::Ok();
    }
    bool reply = type != wire::FrameType::kNote && !unanswered.empty();
    if (reply && type == wire::FrameType::kPlan) {
      wire::PlanFrame plan;
      reply = unanswered.front().verb == runtime::SessionVerb::kReplan &&
              wire::ParsePlan(frame.value().payload, &plan).ok() &&
              plan.reason == runtime::ReplanTriggerName(
                                 runtime::ReplanTrigger::kManual);
    }
    if (!reply) {
      RenderFrame(frame.value(), /*batch_receipt=*/false, writer);
      continue;
    }
    render_errors(unanswered.front().errors_before);
    RenderFrame(frame.value(),
                unanswered.front().verb == runtime::SessionVerb::kBatch,
                writer);
    unanswered.pop_front();
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
       "strategies"});
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
  for (const Interval& query : script.value().ranges) {
    profile.AddLength(query.Length());
  }

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
