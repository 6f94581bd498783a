#include "service/query_service.h"

#include <array>
#include <bit>
#include <functional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "engine/answer_engine.h"

namespace dphist {

Result<QueryService::PendingPublish> QueryService::BuildForPublish(
    const Histogram& data, const SnapshotOptions& options,
    std::uint64_t seed) {
  // Serializing publishers keeps epoch order equal to publish order;
  // the expensive Build happens under the publish token (not the
  // mutex), which readers never touch. The token rides inside the
  // PendingPublish until it is committed or abandoned.
  const std::uint64_t epoch = AcquirePublishToken();
  Rng rng(seed);
  Result<std::shared_ptr<const Snapshot>> built =
      Snapshot::Build(data, options, epoch, &rng);
  if (!built.ok()) {
    ReleasePublishToken();
    return built.status();
  }
  return PendingPublish(this, std::move(built).value());
}

std::uint64_t QueryService::AcquirePublishToken() {
  MutexLock lock(publish_mutex_);
  while (publishing_) publish_cv_.Wait(publish_mutex_);
  publishing_ = true;
  return last_epoch_ + 1;
}

void QueryService::ReleasePublishToken() {
  {
    MutexLock lock(publish_mutex_);
    publishing_ = false;
  }
  publish_cv_.NotifyOne();
}

void QueryService::PendingPublish::Abandon() {
  if (service_ == nullptr) return;
  service_->ReleasePublishToken();
  service_ = nullptr;
}

std::shared_ptr<const Snapshot> QueryService::CommitPublish(
    PendingPublish pending) {
  // dphist-lint: allow(serving-check) our own uncommitted PendingPublish only
  DPHIST_CHECK_MSG(pending.service_ == this && pending.snapshot_ != nullptr,
                   "CommitPublish needs a pending publish from this service");
  const std::uint64_t epoch = pending.snapshot_->epoch();
  // Swap BEFORE releasing the publish token: the next publisher may
  // only observe last_epoch_ == epoch once this snapshot is the one
  // readers see, or its own (newer) swap could be overwritten by ours.
  snapshot_.store(pending.snapshot_, std::memory_order_release);
  {
    MutexLock lock(publish_mutex_);
    last_epoch_ = epoch;
    publishing_ = false;
  }
  publish_cv_.NotifyOne();
  pending.service_ = nullptr;  // token released; Abandon must not re-release
  return std::move(pending.snapshot_);
}

Result<std::shared_ptr<const Snapshot>> QueryService::Publish(
    const Histogram& data, const SnapshotOptions& options,
    std::uint64_t seed) {
  Result<PendingPublish> pending = BuildForPublish(data, options, seed);
  if (!pending.ok()) return pending.status();
  return CommitPublish(std::move(pending).value());
}

Result<std::shared_ptr<const Snapshot>> QueryService::PublishRestored(
    std::shared_ptr<const Snapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("PublishRestored needs a snapshot");
  }
  {
    MutexLock lock(publish_mutex_);
    while (publishing_) publish_cv_.Wait(publish_mutex_);
    if (snapshot->epoch() <= last_epoch_) {
      return Status::FailedPrecondition(
          "recovered epoch " + std::to_string(snapshot->epoch()) +
          " is not ahead of the current epoch " +
          std::to_string(last_epoch_));
    }
    publishing_ = true;
  }
  PendingPublish pending(this, std::move(snapshot));
  return CommitPublish(std::move(pending));
}

Result<std::uint64_t> QueryService::TryQueryBatch(
    const Interval* ranges, std::size_t count, double* out,
    std::uint64_t* /*cache_hits*/) const {
  std::shared_ptr<const Snapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "no published snapshot yet — queries need a Publish first");
  }
  Status valid = snap->ValidateRanges(ranges, count);
  if (!valid.ok()) return valid;
  return QueryBatchOn(*snap, ranges, count, out);
}

Status QueryService::ValidateBatch(const Interval* ranges,
                                   std::size_t count) const {
  std::shared_ptr<const Snapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "no published snapshot yet — queries need a Publish first");
  }
  return snap->ValidateRanges(ranges, count);
}

std::uint64_t QueryService::QueryBatchOn(const Snapshot& snap,
                                         const Interval* ranges,
                                         std::size_t count,
                                         double* out) const {
  // Feed the observed-workload histogram the planner consumes: count the
  // batch's length octaves locally, then add each non-empty octave to
  // this thread's counter stripe with one relaxed add — at most 63
  // atomic adds per batch, no locks, no heap, and no hot cache line
  // shared across readers.
  std::array<std::uint64_t, kOctaves> lengths{};
  std::uint64_t touched = 0;  // bit b set: lengths[b] != 0
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t octave =
        planner::WorkloadProfile::OctaveOf(ranges[i].Length());
    lengths[octave] += 1;
    touched |= std::uint64_t{1} << octave;
  }
  const std::size_t stripe_index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kLengthStripes;
  LengthStripe& stripe = observed_lengths_[stripe_index];
  for (; touched != 0; touched &= touched - 1) {
    const auto octave = static_cast<std::size_t>(std::countr_zero(touched));
    stripe.octaves[octave].fetch_add(lengths[octave],
                                     std::memory_order_relaxed);
  }
  stripe.total.fetch_add(count, std::memory_order_relaxed);
  // Planned releases answer any range as a prefix difference in one
  // columnar engine pass; walker releases (H~, round+prune H-bar) sum at
  // most 2(k-1) log_k n tree nodes per range. Neither allocates.
  if (const engine::AnswerPlan* plan = snap.answer_plan(); plan != nullptr) {
    engine::AnswerBatch(*plan, ranges, /*sel=*/nullptr, count, out);
  } else {
    snap.RangeCountsInto(ranges, count, out);
  }
  return snap.epoch();
}

planner::WorkloadProfile QueryService::ObservedWorkload(
    std::int64_t domain_size) const {
  planner::WorkloadProfile profile(domain_size);
  for (std::size_t b = 0; b < kOctaves; ++b) {
    std::uint64_t seen = 0;
    for (std::size_t s = 0; s < kLengthStripes; ++s) {
      seen += observed_lengths_[s].octaves[b].load(std::memory_order_relaxed);
    }
    if (seen == 0) continue;
    profile.AddLength(planner::WorkloadProfile::OctaveMidpoint(b, domain_size),
                      static_cast<double>(seen));
  }
  return profile;
}

std::uint64_t QueryService::observed_query_count() const {
  std::uint64_t total = 0;
  for (const LengthStripe& stripe : observed_lengths_) {
    total += stripe.total.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t QueryService::current_epoch() const {
  std::shared_ptr<const Snapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  return snap == nullptr ? 0 : snap->epoch();
}

}  // namespace dphist
