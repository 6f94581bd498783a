// Columnar answer state for the batch answer engine.
//
// Every strategy that answers a range as one prefix-sum difference (L~,
// wavelet, consistent H-bar) is served from its release's leaves. The
// AnswerPlan folds those leaves — at publish or restore time, once per
// release, straight from the Snapshot's per-shard state — into ONE
// contiguous 64-byte-aligned buffer of per-shard prefix rows with a side
// index of row offsets, so a whole query batch can be answered by
// gather/subtract kernels (engine/kernels.h) without touching a single
// per-query abstraction: no virtual dispatch, no shard pointer chase, no
// per-answer branch on strategy.
//
// Layout (shard s covering width w_s positions):
//
//   prefix:  [ shard 0: w_0+1 doubles | pad | shard 1: w_1+1 | pad | … ]
//   offsets: [ 0, off_1, off_2, … ]        (side index, 64B-aligned rows)
//
// The answer for a range [lo, hi] inside shard s (shard-local
// coordinates) is prefix[offsets[s] + hi + 1] - prefix[offsets[s] + lo],
// optionally rounded to the nearest non-negative integer (Section 5.2
// semantics — exactly when the strategy rounds its final answers;
// consistent H-bar never does, its rounding happened at node level
// during inference).
//
// Strategies that walk a decomposition per answer (H~, inconsistent
// H-bar) have no rows: the Snapshot walks their node vectors instead.

#ifndef DPHIST_ENGINE_ANSWER_PLAN_H_
#define DPHIST_ENGINE_ANSWER_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dphist::engine {

/// A 64-byte-aligned heap array of doubles (the flattened SoA storage).
class AlignedDoubles {
 public:
  AlignedDoubles() = default;
  /// Allocates `count` doubles at 64-byte alignment (uninitialized).
  explicit AlignedDoubles(std::size_t count);

  double* data() { return data_.get(); }
  const double* data() const { return data_.get(); }
  std::size_t size() const { return size_; }

 private:
  struct Deleter {
    void operator()(double* p) const;
  };
  std::unique_ptr<double[], Deleter> data_;
  std::size_t size_ = 0;
};

/// The per-shard prefix rows of one published release. Immutable after
/// BuildAnswerPlan; owned by the Snapshot and shared by every concurrent
/// reader with no synchronization.
struct AnswerPlan {
  std::int64_t domain_size = 0;
  /// Positions per shard (the last shard may be narrower).
  std::int64_t shard_width = 0;
  std::int64_t shard_count = 0;
  /// True when the final per-shard answer is rounded to the nearest
  /// non-negative integer (L~/wavelet under Section 5.2 rounding).
  bool round_answers = false;
  /// Fast shard location, precomputed once at build time so the batch
  /// grouping pass never pays a hardware integer division (~25 cycles —
  /// the dominant per-query cost of the walker path it replaces):
  /// shard_shift >= 0 when shard_width is a power of two
  /// (shard = position >> shard_shift); otherwise shard_magic is a
  /// 64.64 fixed-point reciprocal (shard = (position * magic) >> 64),
  /// verified exact at every shard boundary during BuildAnswerPlan, or
  /// 0 in the (unreachable in practice) case verification fails and the
  /// engine falls back to plain division.
  int shard_shift = -1;
  std::uint64_t shard_magic = 0;
  /// offsets[s] = index of shard s's first prefix entry inside `prefix`;
  /// each shard's row starts on a 64-byte boundary. -1 for a shard
  /// without a row (see BuildAnswerPlan).
  std::vector<std::int64_t> offsets;
  /// full_shard[s] = shard s's answer for its entire slice (rounded
  /// exactly as a kernel lane would round it). A query spanning shards
  /// covers every middle shard completely, so the engine folds these
  /// precomputed answers and only runs kernel lanes for the two partial
  /// end pieces — same bits, ~2 lanes per spanning query instead of one
  /// per shard touched.
  std::vector<double> full_shard;
  /// The rows: shard s occupies
  /// prefix[offsets[s] .. offsets[s] + width_s] (width_s + 1 entries).
  AlignedDoubles prefix;
};

/// Folds each shard's leaves into its 64-byte-aligned row, left to right
/// exactly as FoldLeafPrefixSums folds them, and precomputes the
/// whole-shard answers. `leaves[s]` points at shard s's leaves (its
/// slice of the domain under `shard_width`). A null entry gives shard s
/// no row (offsets[s] = -1, full_shard[s] = 0): only a Snapshot that
/// walks that shard holds such a plan, and it never hands it to the
/// engine, which needs a row for every shard. `round_answers` is the
/// strategy's final-answer rounding. Runs at publish and restore time;
/// its cost is one pass over the release's leaves.
std::unique_ptr<const AnswerPlan> BuildAnswerPlan(
    const std::vector<const double*>& leaves, std::int64_t domain_size,
    std::int64_t shard_width, bool round_answers);

}  // namespace dphist::engine

#endif  // DPHIST_ENGINE_ANSWER_PLAN_H_
