// Runtime-dispatched prefix-difference kernels for the answer engine.
//
// One kernel shape serves every flattened strategy:
//
//   out[i] = prefix[hi_idx[i]] - prefix[lo_idx[i]]        (round = false)
//   out[i] = max(0, round_half_away(prefix diff))         (round = true)
//
// where the indices are absolute positions inside an AnswerPlan's
// flattened table (the shard offset is folded into the index by the
// engine, so one sweep answers a batch spanning any number of shards).
//
// Three implementations sit behind one dispatch ladder — AVX2
// (4-wide i64 gathers + floor-based rounding), SSE2 (2-wide, scalar
// loads, 2^52-trick floor; baseline on x86-64), portable scalar — and
// every level is bit-identical: IEEE-754 subtraction is exact in every
// lane width, and for 0 < x < 2^52 the vectorized
// floor(x) + (x - floor(x) >= 0.5) equals std::round(x) exactly
// (x - floor(x) is exact by Sterbenz' lemma). The conformance suite
// (tests/engine/) property-tests this across all supported levels.
//
// Selection: the highest CPU-supported level wins; the
// DPHIST_FORCE_KERNEL environment variable (or ForceKernel, the test and
// bench hook) overrides it downward. Forcing a level the CPU lacks falls
// back to the best supported one.

#ifndef DPHIST_ENGINE_KERNELS_H_
#define DPHIST_ENGINE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"

namespace dphist::engine {

/// Dispatch levels, weakest first (the order is the fallback ladder).
enum class KernelKind {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};
inline constexpr int kKernelKindCount = 3;

/// Stable lowercase name ("scalar", "sse2", "avx2").
const char* KernelKindName(KernelKind kind);

/// Inverse of KernelKindName.
Result<KernelKind> ParseKernelKind(const std::string& name);

/// True when this machine can execute `kind`.
bool KernelSupported(KernelKind kind);

/// The highest supported level on this machine.
KernelKind BestSupportedKernel();

/// The level the engine will dispatch to: a ForceKernel override if one
/// is set, else DPHIST_FORCE_KERNEL from the environment (read once),
/// else BestSupportedKernel(). Unsupported requests clamp to the best
/// supported level.
KernelKind ActiveKernel();

/// Overrides ActiveKernel for this process (the conformance tests and
/// bench_answer_kernel); nullopt restores env/auto selection.
void ForceKernel(std::optional<KernelKind> kind);

/// Runs the prefix-difference kernel at `kind` (caller obtains it from
/// ActiveKernel): out[i] = prefix[hi_idx[i]] - prefix[lo_idx[i]],
/// rounded to the nearest non-negative integer when `round`. Lanes are
/// independent; any count (including 0) is legal.
void PrefixDiffKernel(KernelKind kind, const double* prefix,
                      const std::int64_t* lo_idx, const std::int64_t* hi_idx,
                      std::size_t count, bool round, double* out);

}  // namespace dphist::engine

#endif  // DPHIST_ENGINE_KERNELS_H_
