// The columnar batch answer engine: answers whole query batches against
// a Snapshot's flattened AnswerPlan through the SIMD kernel ladder.
//
// Execution model (per batch):
//
//   1. One scalar grouping pass maps each query to its shard and folds
//      the shard's offset into a pair of absolute gather indices — so a
//      query's lanes always land inside its own shard's row of the
//      flattened table (shard grouping by index construction; no
//      reorder/scatter, which on <= 64-shard releases costs more than
//      the locality it buys). Shard-spanning queries are set aside.
//   2. One kernel sweep (engine/kernels.h) computes every single-shard
//      answer N-wide: gather, subtract, optional round.
//   3. Each spanning query expands into its clipped per-shard pieces —
//      first partial, full middle shards, last partial — which run
//      through the same kernel, then fold left-to-right in ascending
//      shard order. That is exactly the walker's summation order, so
//      spanning answers are bit-identical too.
//
// Scratch lives in thread-local arenas that grow to the high-water batch
// size and are then reused: steady-state batches perform zero heap
// allocations (proved by dphist_alloc_test).
//
// Counters: every batch and query answered is tallied, whatever the
// kernel level; `stats` and the server receipt surface them beside the
// live level as engine_kernel= / engine_batches= / engine_queries=.

#ifndef DPHIST_ENGINE_ANSWER_ENGINE_H_
#define DPHIST_ENGINE_ANSWER_ENGINE_H_

#include <cstddef>
#include <cstdint>

#include "domain/interval.h"
#include "engine/answer_plan.h"
#include "engine/kernels.h"

namespace dphist::engine {

/// Answers `count` queries against `plan` into out[0..count). When `sel`
/// is null the queries are ranges[0..count); otherwise the j-th answered
/// query is ranges[sel[j]] (a gather over a subset of `ranges`). Every
/// range must lie inside
/// [0, plan.domain_size) — the serving layer validates before calling.
/// Bit-identical to Snapshot::RangeCount at every dispatch level.
void AnswerBatch(const AnswerPlan& plan, const Interval* ranges,
                 const std::int32_t* sel, std::size_t count, double* out);

/// Cumulative process-wide batch/query tallies over every kernel level.
struct EngineCounters {
  std::uint64_t batches = 0;
  std::uint64_t queries = 0;

  std::uint64_t total_batches() const { return batches; }
  std::uint64_t total_queries() const { return queries; }
};

/// Snapshot of the counters (relaxed reads; exact once writers quiesce).
EngineCounters GlobalEngineCounters();

}  // namespace dphist::engine

#endif  // DPHIST_ENGINE_ANSWER_ENGINE_H_
