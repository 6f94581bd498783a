// Synthetic NetTrace: stand-in for the paper's university IP-level trace.
//
// The paper's NetTrace is a bipartite connection graph between internal
// and external hosts; the histogram of interest counts, for each external
// host, how many internal hosts it contacted (~65K external hosts). The
// real trace is proprietary, so we generate connections whose per-host
// tallies reproduce the properties the experiments depend on:
//   - heavy-tailed degrees (a few hosts with thousands of connections),
//   - a vast majority of hosts with 0/1/2 connections (long uniform runs
//     in sorted order — the Theorem 2 regime), and
//   - a sparse domain when viewed positionally (most IPs quiet), which is
//     what makes H-bar beat L~ even at small ranges (Section 5.2).

#ifndef DPHIST_PAPER_DATA_NETTRACE_H_
#define DPHIST_PAPER_DATA_NETTRACE_H_

#include <cstdint>

#include "common/rng.h"
#include "domain/histogram.h"

namespace dphist {

/// Parameters of the synthetic trace.
struct NetTraceConfig {
  /// Number of external hosts = histogram domain size.
  std::int64_t num_hosts = 65536;
  /// Total connections (records). One record = one (internal, external)
  /// edge; differential privacy protects individual connections.
  std::int64_t num_connections = 300000;
  /// Zipf exponent of host popularity; larger = heavier head.
  double zipf_exponent = 1.1;
  /// Fraction of hosts that never appear (silent IP space). Active hosts
  /// are placed in contiguous clusters (subnets), so the silent space
  /// forms long runs — the structure that lets H-bar's subtree pruning
  /// recognize empty regions (Section 5.2).
  double silent_fraction = 0.55;
  /// Number of consecutive addresses per active cluster (subnet size).
  std::int64_t cluster_size = 64;
  /// Generator seed.
  std::uint64_t seed = 42;
};

/// Per-host connection counts over [0, num_hosts).
Histogram GenerateNetTrace(const NetTraceConfig& config);

}  // namespace dphist

#endif  // DPHIST_PAPER_DATA_NETTRACE_H_
