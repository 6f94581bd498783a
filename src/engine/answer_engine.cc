#include "engine/answer_engine.h"

#include <algorithm>
#include <atomic>
#include <vector>

namespace dphist::engine {
namespace {

std::atomic<std::uint64_t> g_batches{0};
std::atomic<std::uint64_t> g_queries{0};

/// Per-thread arenas, grown to the high-water batch size and reused so
/// steady-state batches never touch the heap. Readers on different
/// threads answer concurrently against the same immutable plan.
struct Scratch {
  std::vector<std::int64_t> lo;         // absolute gather indices
  std::vector<std::int64_t> hi;
  std::vector<std::int32_t> spanning;   // out positions of spanning queries
  std::vector<std::int32_t> span_first; // their first/last shard ids
  std::vector<std::int32_t> span_last;
  std::vector<std::int64_t> piece_lo;   // the two partial end pieces of
  std::vector<std::int64_t> piece_hi;   // each spanning query
  std::vector<double> piece_out;
};

Scratch& LocalScratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace

void AnswerBatch(const AnswerPlan& plan, const Interval* ranges,
                 const std::int32_t* sel, std::size_t count, double* out) {
  if (count == 0) return;
  Scratch& s = LocalScratch();
  if (s.lo.size() < count) {
    s.lo.resize(count);
    s.hi.resize(count);
  }
  // Only a query that crosses a shard boundary touches the spanning
  // scratch, so a one-shard plan never grows it.
  if (plan.shard_count > 1 && s.spanning.size() < count) {
    s.spanning.resize(count);
    s.span_first.resize(count);
    s.span_last.resize(count);
    s.piece_lo.resize(2 * count);
    s.piece_hi.resize(2 * count);
    s.piece_out.resize(2 * count);
  }

  const std::int64_t width = plan.shard_width;
  const double* prefix = plan.prefix.data();
  const std::int64_t* offsets = plan.offsets.data();

  // Division-free shard locator (see AnswerPlan::shard_shift/shard_magic
  // — a hardware division here would cost more than the whole kernel).
  // Both branches predict perfectly: the selector is loop-invariant.
  const int shift = plan.shard_shift;
  const std::uint64_t magic = plan.shard_magic;
  const auto shard_of = [&](std::int64_t position) -> std::int64_t {
    if (shift >= 0) return position >> shift;
    if (magic != 0) {
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(
               static_cast<std::uint64_t>(position)) *
           magic) >>
          64));
    }
    return position / width;
  };

  // Grouping pass: fold each query's shard offset into absolute
  // indices. A spanning query (first != last) contributes its two
  // PARTIAL end pieces to the piece list — its middle shards are
  // covered completely, so their precomputed whole-shard answers
  // (plan.full_shard) stand in for kernel lanes. The end pieces need no
  // clipping: the first piece always runs to its shard's end (a later
  // shard holds q.hi()), the last always starts at its shard's base,
  // and neither can be the domain's short tail unless it holds the
  // query's own endpoint.
  std::size_t spans = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const Interval& q = ranges[sel != nullptr ? sel[j] : j];
    const std::int64_t first = shard_of(q.lo());
    const std::int64_t last = shard_of(q.hi());
    if (first == last) {
      const std::int64_t off = offsets[first] - first * width;
      s.lo[j] = off + q.lo();
      s.hi[j] = off + q.hi() + 1;
    } else {
      // Placeholder lanes (prefix[0] - prefix[0] = 0; rounding keeps 0);
      // the real answer lands in the spanning fold below.
      s.lo[j] = 0;
      s.hi[j] = 0;
      s.spanning[spans] = static_cast<std::int32_t>(j);
      s.span_first[spans] = static_cast<std::int32_t>(first);
      s.span_last[spans] = static_cast<std::int32_t>(last);
      s.piece_lo[2 * spans] = offsets[first] + (q.lo() - first * width);
      s.piece_hi[2 * spans] = offsets[first] + width;
      s.piece_lo[2 * spans + 1] = offsets[last];
      s.piece_hi[2 * spans + 1] = offsets[last] + (q.hi() - last * width) + 1;
      ++spans;
    }
  }

  const KernelKind kind = ActiveKernel();
  PrefixDiffKernel(kind, prefix, s.lo.data(), s.hi.data(), count,
                   plan.round_answers, out);

  // Spanning fold: one kernel sweep answers every end piece, then each
  // query folds first piece + middle whole-shard answers + last piece
  // in ascending shard order — the walker's exact summation order, so
  // the total is bit-identical to summing per-shard RangeCount calls.
  if (spans != 0) {
    PrefixDiffKernel(kind, prefix, s.piece_lo.data(), s.piece_hi.data(),
                     2 * spans, plan.round_answers, s.piece_out.data());
    const double* full = plan.full_shard.data();
    for (std::size_t m = 0; m < spans; ++m) {
      double total = s.piece_out[2 * m];
      for (std::int32_t shard = s.span_first[m] + 1; shard < s.span_last[m];
           ++shard) {
        total += full[shard];
      }
      total += s.piece_out[2 * m + 1];
      out[s.spanning[m]] = total;
    }
  }

  g_batches.fetch_add(1, std::memory_order_relaxed);
  g_queries.fetch_add(count, std::memory_order_relaxed);
}

EngineCounters GlobalEngineCounters() {
  EngineCounters counters;
  counters.batches = g_batches.load(std::memory_order_relaxed);
  counters.queries = g_queries.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace dphist::engine
