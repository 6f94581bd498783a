// Graphical degree sequences — Appendix B's future-work item for the
// unattributed-histogram task: "a constraint enforcing that the output
// sequence is graphical, i.e. the degree sequence of some graph".
//
// After S-bar + rounding, the released sequence is sorted, integral, and
// non-negative, but may still fail to be realizable as a simple graph
// (odd degree sum, or an Erdos-Gallai inequality violated). This module
// provides the Erdos-Gallai characterization and a repair heuristic that
// nudges a sequence to the "nearest" graphical one (greedy, small-L1
// adjustments; an exact minimum-L2 projection onto the graphical
// polytope is open — which is why the paper left it as future work).

#ifndef DPHIST_PAPER_INFERENCE_GRAPHICAL_H_
#define DPHIST_PAPER_INFERENCE_GRAPHICAL_H_

#include <cstdint>
#include <vector>

namespace dphist {

/// True iff `degrees` (any order; values need not be sorted) is the
/// degree sequence of some simple undirected graph, by the Erdos-Gallai
/// theorem. Negative entries or entries >= n make it non-graphical.
bool IsGraphicalDegreeSequence(const std::vector<std::int64_t>& degrees);

/// Adjusts `degrees` to a graphical sequence with small L1 changes:
/// clamps to [0, n-1], fixes odd parity, then resolves Erdos-Gallai
/// violations by lowering the largest degrees. The result is graphical
/// and preserves the input's ordering by rank. Input values may be in
/// any order; output is returned in the same positions.
std::vector<std::int64_t> RepairToGraphical(
    const std::vector<std::int64_t>& degrees);

}  // namespace dphist

#endif  // DPHIST_PAPER_INFERENCE_GRAPHICAL_H_
