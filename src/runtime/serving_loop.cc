#include "runtime/serving_loop.h"

#include <istream>
#include <sstream>
#include <string>
#include <utility>

#include "engine/answer_engine.h"

namespace dphist::runtime {

SessionExecutor::SessionExecutor(
    SessionWriter& writer, QueryService& service, EpochManager& manager,
    std::function<std::uint64_t()> session_write_errors)
    : writer_(writer),
      service_(service),
      manager_(manager),
      subscription_(manager),
      session_write_errors_(std::move(session_write_errors)) {
  std::shared_ptr<const Snapshot> snapshot = service.snapshot();
  if (snapshot != nullptr) domain_size_ = snapshot->domain_size();
}

void SessionExecutor::NoteAnswerEpoch(std::uint64_t epoch) {
  if (epoch != last_answer_epoch_) {
    last_answer_epoch_ = epoch;
    summary_.epochs_seen += 1;
  }
}

Result<std::uint64_t> SessionExecutor::AnswerInto(
    const Interval* ranges, std::size_t count, std::vector<double>* answers) {
  answers->resize(count);
  Result<std::uint64_t> answered =
      service_.TryQueryBatch(ranges, count, answers->data());
  if (!answered.ok()) return answered;
  summary_.queries += count;
  summary_.last_epoch = answered.value();
  NoteAnswerEpoch(answered.value());
  return answered;
}

Result<std::uint64_t> SessionExecutor::AnswerBatch(
    const Interval* ranges, std::size_t count, std::vector<double>* answers) {
  Result<std::uint64_t> answered = AnswerInto(ranges, count, answers);
  if (!answered.ok()) return answered;
  summary_.batches += 1;
  return answered;
}

bool SessionExecutor::ExecuteLine(std::string_view line,
                                  std::int64_t line_number) {
  Result<bool> parsed =
      ParseSessionLine(line, domain_size_, line_number, &command_);
  if (!parsed.ok()) {
    // A typo should not end a session mid-stream.
    writer_.Error(parsed.status());
  } else if (parsed.value()) {  // not blank, not a comment
    if (command_.verb == SessionVerb::kQuit) return false;
    Status status =
        Execute(command_.verb, command_.ranges, /*interactive=*/true);
    if (!status.ok()) writer_.Error(status);
    PollAndReport();
  }
  return true;
}

Status SessionExecutor::Execute(SessionVerb verb,
                                std::span<const Interval> ranges,
                                bool interactive) {
  switch (verb) {
    case SessionVerb::kQuery:
    case SessionVerb::kBatch: {
      Result<std::uint64_t> answered =
          AnswerInto(ranges.data(), ranges.size(), &answers_);
      if (!answered.ok()) return answered.status();
      writer_.Answers(answers_.data(), ranges.size());
      if (verb == SessionVerb::kBatch) {
        summary_.batches += 1;
        // The receipt is what lets a transcript prove the whole batch
        // was served under one epoch; scripts keep the pre-runtime
        // answers-only format.
        if (interactive) writer_.BatchReceipt(ranges.size(), answered.value());
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
         << StrategyKindName(outcome.plan.options.strategy)
         << " measured=" << outcome.measured_drift;
  } else {
    // A failed lifecycle replan (budget refusal, planning error) is
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
  const EpochManager::Stats lifecycle = manager_.stats();
  std::ostringstream text;
  text.precision(6);
  text << "stats epoch=" << (snap != nullptr ? snap->epoch() : 0)
       << " strategy="
       << (snap != nullptr ? StrategyKindName(snap->strategy()) : "none")
       << " shards=" << (snap != nullptr ? snap->shard_count() : 0)
       << " queries=" << service_.observed_query_count()
       << " publishes=" << lifecycle.republishes
       << " replans=" << (lifecycle.manual + lifecycle.every +
                          lifecycle.drift)
       << " drift_checks=" << lifecycle.drift_checks
       << " epsilon_spent=" << lifecycle.epsilon_spent;
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

Result<SessionSummary> RunStreamingSession(std::istream& in,
                                           SessionWriter& writer,
                                           QueryService& service,
                                           EpochManager& manager) {
  if (service.snapshot() == nullptr) {
    return Status::FailedPrecondition(
        "streaming session needs a published snapshot");
  }
  SessionExecutor executor(writer, service, manager);
  std::string line;
  std::int64_t line_number = 0;
  while (std::getline(in, line) &&
         executor.ExecuteLine(line, ++line_number)) {
    // Flush only before a read that may block: a piped workload is
    // written in large chunks, an interactive line is answered at once.
    if (in.rdbuf()->in_avail() <= 0) writer.Flush();
  }
  // Let any in-flight asynchronous replan land so the transcript ends in
  // a deterministic state, then announce it.
  manager.Drain();
  executor.PollAndReport();
  writer.Flush();
  return executor.summary();
}

Result<SessionSummary> RunScriptedSession(const SessionScript& script,
                                          SessionWriter& writer,
                                          QueryService& service,
                                          EpochManager& manager) {
  if (service.snapshot() == nullptr) {
    return Status::FailedPrecondition(
        "scripted session needs a published snapshot");
  }
  SessionExecutor executor(writer, service, manager);
  const std::span<const Interval> ranges(script.ranges);
  for (const SessionStep& step : script.steps) {
    Status status =
        executor.Execute(step.verb, ranges.subspan(step.first, step.count),
                         /*interactive=*/false);
    if (!status.ok()) return status;
    executor.PollAndReport();
  }
  manager.Drain();
  executor.PollAndReport();
  return executor.summary();
}

}  // namespace dphist::runtime
