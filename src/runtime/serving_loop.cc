#include "runtime/serving_loop.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "engine/answer_engine.h"

namespace dphist::runtime {
namespace {

/// Answers `count` ranges over `threads` workers in contiguous slices;
/// each slice is one QueryBatch (single-epoch within itself). Returns
/// the epoch of the last non-empty slice and adds the run's cache hits
/// to `*cache_hits` (when non-null).
std::uint64_t AnswerParallel(QueryService& service, const Interval* ranges,
                             std::size_t count, std::int64_t threads,
                             double* out, std::uint64_t* cache_hits) {
  if (count == 0) return service.current_epoch();
  const std::int64_t total = static_cast<std::int64_t>(count);
  const std::int64_t slices = std::max<std::int64_t>(
      1, std::min(ResolveThreadCount(threads), total));
  if (slices == 1) return service.QueryBatch(ranges, count, out, cache_hits);
  const std::int64_t slice_width = (total + slices - 1) / slices;
  // Rounding can leave trailing slices empty (4 queries over 3 slices
  // of width 2 fills only slices 0 and 1), so anchor the summary epoch
  // on the last slice that actually answered queries — falling back to
  // current_epoch() could report an epoch newer than any slice ran
  // under when a swap lands between the fan-out and the summary.
  const std::int64_t last_nonempty = (total + slice_width - 1) / slice_width - 1;
  std::uint64_t last_epoch = 0;
  // Per-slice hit counters: slices run on different workers, so they
  // must not share one accumulator.
  std::vector<std::uint64_t> slice_hits(
      static_cast<std::size_t>(slices), 0);
  ParallelFor(slices, slices, [&](std::int64_t slice) {
    const std::int64_t begin = slice * slice_width;
    const std::int64_t end = std::min(total, begin + slice_width);
    if (begin >= end) return;
    const std::uint64_t epoch = service.QueryBatch(
        ranges + begin, static_cast<std::size_t>(end - begin), out + begin,
        &slice_hits[static_cast<std::size_t>(slice)]);
    if (slice == last_nonempty) last_epoch = epoch;
  });
  if (cache_hits != nullptr) {
    for (std::uint64_t h : slice_hits) *cache_hits += h;
  }
  return last_epoch;
}

}  // namespace

SessionExecutor::SessionExecutor(
    SessionWriter& writer, QueryService& service, EpochManager& manager,
    std::function<std::uint64_t()> session_write_errors)
    : writer_(writer),
      service_(service),
      manager_(manager),
      subscription_(manager),
      session_write_errors_(std::move(session_write_errors)) {}

void SessionExecutor::NoteAnswerEpoch(std::uint64_t epoch) {
  if (epoch != last_answer_epoch_) {
    last_answer_epoch_ = epoch;
    summary_.epochs_seen += 1;
  }
}

Status SessionExecutor::AnswerRun(const Interval* ranges, std::size_t count,
                                  std::int64_t threads) {
  // One validation up front covers every slice: the domain never changes
  // across epochs, so a swap mid-run cannot invalidate a range the
  // current snapshot accepts.
  Status valid = service_.ValidateBatch(ranges, count);
  if (!valid.ok()) return valid;
  answers_.resize(count);
  std::uint64_t hits = 0;
  summary_.last_epoch =
      AnswerParallel(service_, ranges, count, threads, answers_.data(), &hits);
  summary_.cache_hits += hits;
  NoteAnswerEpoch(summary_.last_epoch);
  writer_.Answers(answers_.data(), count);
  summary_.queries += count;
  return Status::Ok();
}

Result<std::uint64_t> SessionExecutor::AnswerBatch(
    const Interval* ranges, std::size_t count, std::vector<double>* answers) {
  answers->resize(count);
  std::uint64_t hits = 0;
  Result<std::uint64_t> answered =
      service_.TryQueryBatch(ranges, count, answers->data(), &hits);
  if (!answered.ok()) return answered.status();
  const std::uint64_t epoch = answered.value();
  summary_.commands += 1;
  summary_.queries += count;
  summary_.batches += 1;
  summary_.cache_hits += hits;
  summary_.last_epoch = epoch;
  NoteAnswerEpoch(epoch);
  return epoch;
}

Status SessionExecutor::Execute(const SessionCommand& command,
                                bool interactive) {
  summary_.commands += 1;
  switch (command.verb) {
    case SessionVerb::kQuery:
      return AnswerRun(command.ranges.data(), command.ranges.size(), 1);
    case SessionVerb::kBatch: {
      answers_.resize(command.ranges.size());
      std::uint64_t hits = 0;
      Result<std::uint64_t> answered =
          service_.TryQueryBatch(command.ranges.data(), command.ranges.size(),
                                 answers_.data(), &hits);
      if (!answered.ok()) return answered.status();
      const std::uint64_t epoch = answered.value();
      summary_.last_epoch = epoch;
      summary_.queries += command.ranges.size();
      summary_.batches += 1;
      summary_.cache_hits += hits;
      NoteAnswerEpoch(epoch);
      writer_.Answers(answers_.data(), command.ranges.size());
      // The receipt is what lets a transcript prove the whole batch
      // was served under one epoch; scripts keep the pre-runtime
      // answers-only format.
      if (interactive) {
        writer_.BatchReceipt(command.ranges.size(), epoch);
      }
      return Status::Ok();
    }
    case SessionVerb::kStats:
      writer_.Comment(StatsText());
      return Status::Ok();
    case SessionVerb::kReplan: {
      Result<ReplanOutcome> outcome = ManualReplan();
      if (!outcome.ok()) return outcome.status();
      ReportOutcome(outcome.value());
      return Status::Ok();
    }
    case SessionVerb::kQuit:
      return Status::Ok();
  }
  return Status::Internal("unreachable: unknown session verb");
}

Result<ReplanOutcome> SessionExecutor::ManualReplan() {
  // Pass our subscription so the broadcast skips this session — we
  // report the outcome directly; other sessions still get theirs.
  return manager_.ReplanNow(subscription_.id());
}

void SessionExecutor::PollAndReport() {
  for (const ReplanOutcome& outcome : PollAndTake()) {
    ReportOutcome(outcome);
  }
}

std::vector<ReplanOutcome> SessionExecutor::PollAndTake() {
  manager_.Poll();
  return manager_.TakeCompleted(subscription_.id());
}

std::vector<ReplanOutcome> SessionExecutor::TakeAnnouncements() {
  return manager_.TakeCompleted(subscription_.id());
}

std::string SessionExecutor::OutcomeComment(const ReplanOutcome& outcome) {
  std::ostringstream text;
  if (outcome.status.ok()) {
    text.precision(4);
    text << "drift check kept "
         << StrategyKindName(outcome.plan.options.strategy);
    if (outcome.drift_measured) {
      text << " measured=" << outcome.measured_drift;
    } else {
      // No ratio was ever computed: the current configuration is not
      // costable but the planner re-chose it. Printing "measured=0"
      // here would claim a measurement that never happened.
      text << " (planner re-chose current config; not costable)";
    }
  } else {
    // A failed lifecycle replan (budget refusal, infeasible plan) is
    // shared state, not this session's fault: render it as a comment.
    // "error:" stays reserved for the session's own commands — a
    // client must never see its transcript flagged because another
    // session's trigger was refused. (A failed `replan` COMMAND still
    // reports as "error:" through Execute's status return.)
    text << "replan failed (" << ReplanTriggerName(outcome.trigger)
         << "): " << outcome.status.ToString();
  }
  return text.str();
}

void SessionExecutor::ReportOutcome(const ReplanOutcome& outcome) {
  if (outcome.republished) {
    writer_.PlanNote(outcome.plan, outcome.epoch,
                     ReplanTriggerName(outcome.trigger));
    summary_.replans_reported += 1;
  } else {
    writer_.Comment(OutcomeComment(outcome));
  }
}

std::string SessionExecutor::StatsText() {
  std::shared_ptr<const Snapshot> snap = service_.snapshot();
  const AnswerCache::Stats cache = service_.cache_stats();
  const QueryService::SwapStats swaps = service_.swap_stats();
  const EpochManager::Stats lifecycle = manager_.stats();
  std::ostringstream text;
  text.precision(6);
  text << "stats epoch=" << (snap != nullptr ? snap->epoch() : 0)
       << " strategy="
       << (snap != nullptr ? StrategyKindName(snap->strategy()) : "none")
       << " shards=" << (snap != nullptr ? snap->shard_count() : 0)
       << " queries=" << service_.observed_query_count()
       << " publishes=" << swaps.publishes
       << " swap_evictions=" << swaps.total_swap_evictions
       << " replans=" << (lifecycle.manual + lifecycle.every +
                          lifecycle.drift)
       << " drift_checks=" << lifecycle.drift_checks
       << " epsilon_spent=" << lifecycle.epsilon_spent
       << " cache_hits=" << cache.hits << " cache_misses=" << cache.misses
       << " cache_size=" << service_.cache_size();
  // Batch answer engine: which kernel level is live and how much traffic
  // it has absorbed (totals across levels differ only when a force
  // override changed mid-run).
  const engine::EngineCounters engine_counters =
      engine::GlobalEngineCounters();
  text << " engine_kernel=" << engine::KernelKindName(engine::ActiveKernel())
       << " engine_batches=" << engine_counters.total_batches()
       << " engine_queries=" << engine_counters.total_queries()
       // Per-session tail: this session's own traffic, for multi-tenant
       // debugging (the fields above are server-global).
       << " session_queries=" << summary_.queries
       << " session_batches=" << summary_.batches
       << " session_cache_hits=" << summary_.cache_hits
       << " session_epochs=" << summary_.epochs_seen
       << " protocol=" << protocol_;
  if (session_write_errors_) {
    text << " write_errors=" << session_write_errors_();
  }
  return text.str();
}

void WriteServingBanner(SessionWriter& writer, const Snapshot& snapshot) {
  std::ostringstream banner;
  banner << "serving n=" << snapshot.domain_size()
         << " epoch=" << snapshot.epoch()
         << " strategy=" << StrategyKindName(snapshot.strategy())
         << " shards=" << snapshot.shard_count()
         << " eps=" << snapshot.epsilon();
  writer.Comment(banner.str());
}

Result<SessionSummary> RunStreamingSession(
    std::istream& in, SessionWriter& writer, QueryService& service,
    EpochManager& manager, const ServingLoopOptions& options) {
  std::shared_ptr<const Snapshot> snap = service.snapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "streaming session needs a published snapshot");
  }
  SessionReader reader(in, snap->domain_size());
  SessionExecutor executor(writer, service, manager,
                           options.session_write_errors);
  while (true) {
    Result<SessionCommand> command = reader.Next();
    if (!command.ok()) {
      // An interactive typo should not kill a server mid-session.
      executor.summary().parse_errors += 1;
      writer.Error(command.status());
      writer.Flush();
      continue;
    }
    if (command.value().verb == SessionVerb::kQuit) break;
    Status status = executor.Execute(command.value(), /*interactive=*/true);
    if (!status.ok()) writer.Error(status);
    executor.PollAndReport();
    writer.Flush();
  }
  // Let any in-flight asynchronous replan land so the transcript ends in
  // a deterministic state, then announce it.
  manager.Drain();
  executor.PollAndReport();
  writer.Flush();
  return executor.summary();
}

Result<SessionSummary> RunScriptedSession(
    const std::vector<SessionCommand>& script, SessionWriter& writer,
    QueryService& service, EpochManager& manager,
    const ServingLoopOptions& options) {
  if (service.snapshot() == nullptr) {
    return Status::FailedPrecondition(
        "scripted session needs a published snapshot");
  }
  SessionExecutor executor(writer, service, manager,
                           options.session_write_errors);
  std::vector<Interval> run;  // coalesced consecutive single-range queries
  std::size_t i = 0;
  while (i < script.size()) {
    const SessionVerb verb = script[i].verb;
    if (verb == SessionVerb::kQuery) {
      // Only single-range commands coalesce: a slice boundary can never
      // split one, so the fan-out keeps each command single-epoch. A
      // `qb` batch must NOT be merged — its contract is that all k
      // ranges answer under one snapshot, which one QueryBatch call
      // below guarantees and a re-sliced run would not.
      run.clear();
      std::size_t j = i;
      while (j < script.size() && script[j].verb == SessionVerb::kQuery) {
        run.insert(run.end(), script[j].ranges.begin(),
                   script[j].ranges.end());
        executor.summary().commands += 1;
        ++j;
      }
      Status status = executor.AnswerRun(run.data(), run.size(),
                                         options.threads);
      if (!status.ok()) return status;
      i = j;
    } else if (verb == SessionVerb::kQuit) {
      break;
    } else {
      Status status = executor.Execute(script[i], /*interactive=*/false);
      if (!status.ok()) return status;
      ++i;
    }
    executor.PollAndReport();
  }
  manager.Drain();
  executor.PollAndReport();
  return executor.summary();
}

}  // namespace dphist::runtime
