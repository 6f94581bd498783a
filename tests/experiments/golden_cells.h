// Committed fixed-seed golden outputs for the Fig. 5 / Fig. 6 experiment
// runners (see parallel_runner_test.cc). Values are hexfloat literals,
// so the expectation is BIT-IDENTICAL reproduction — the runners fork
// per-trial RNG streams in trial order and merge deterministically, and
// any change to the noise sampling, estimator pipeline, or merge order
// shows up here as a hard failure at every thread count.
//
// To regenerate after an *intentional* protocol change, run dphist_tests
// with DPHIST_PRINT_GOLDEN=1 and --gtest_filter='*GoldenCells*', then
// paste the printed rows over these arrays.
//
// Configs (golden_cells_test section of parallel_runner_test.cc):
//   data:          GenerateSocialNetworkDegrees(num_nodes=300,
//                  edges_per_node=3), default seed
//   universal:     epsilons {1.0, 0.1}, trials 5, ranges_per_size 40,
//                  branching 2, seed 7
//   unattributed:  epsilons {1.0, 0.01}, trials 6, seed 7

#ifndef DPHIST_TESTS_EXPERIMENTS_GOLDEN_CELLS_H_
#define DPHIST_TESTS_EXPERIMENTS_GOLDEN_CELLS_H_

#include <cstdint>

#include "paper/estimators/unattributed.h"

namespace dphist::golden {

struct GoldenUniversalCell {
  double epsilon;
  const char* estimator;
  std::int64_t range_size;
  double avg_squared_error;
};

inline constexpr GoldenUniversalCell kUniversalCells[] = {
    {0x1p+0, "L~", 2, 0x1.01eb851eb851fp+2},
    {0x1p+0, "H~", 2, 0x1.8e66666666666p+7},
    {0x1p+0, "H-bar", 2, 0x1.ec3d70a3d70a5p+6},
    {0x1p+0, "L~", 4, 0x1.1570a3d70a3d7p+3},
    {0x1p+0, "H~", 4, 0x1.7b51eb851eb86p+8},
    {0x1p+0, "H-bar", 4, 0x1.fef5c28f5c28fp+6},
    {0x1p+0, "L~", 8, 0x1.887ae147ae148p+3},
    {0x1p+0, "H~", 8, 0x1.ca2147ae147aep+8},
    {0x1p+0, "H-bar", 8, 0x1.423851eb851ecp+7},
    {0x1p+0, "L~", 16, 0x1.f0147ae147ae1p+4},
    {0x1p+0, "H~", 16, 0x1.6958f5c28f5c2p+9},
    {0x1p+0, "H-bar", 16, 0x1.85eb851eb851fp+7},
    {0x1p+0, "L~", 32, 0x1.be70a3d70a3d8p+5},
    {0x1p+0, "H~", 32, 0x1.c0ef5c28f5c2bp+9},
    {0x1p+0, "H-bar", 32, 0x1.ddd47ae147ae1p+7},
    {0x1p+0, "L~", 64, 0x1.001999999999ap+7},
    {0x1p+0, "H~", 64, 0x1.0a6e147ae147bp+10},
    {0x1p+0, "H-bar", 64, 0x1.072b851eb851ep+8},
    {0x1p+0, "L~", 128, 0x1.f830a3d70a3d8p+7},
    {0x1p+0, "H~", 128, 0x1.0d44cccccccccp+10},
    {0x1p+0, "H-bar", 128, 0x1.188f5c28f5c28p+8},
    {0x1p+0, "L~", 256, 0x1.a536666666667p+9},
    {0x1p+0, "H~", 256, 0x1.18ecccccccccdp+10},
    {0x1p+0, "H-bar", 256, 0x1.874cccccccccdp+8},
    {0x1.999999999999ap-4, "L~", 2, 0x1.a5a3d70a3d709p+7},
    {0x1.999999999999ap-4, "H~", 2, 0x1.9c4ad70a3d709p+13},
    {0x1.999999999999ap-4, "H-bar", 2, 0x1.04c3851eb851ep+12},
    {0x1.999999999999ap-4, "L~", 4, 0x1.9c4b851eb851fp+8},
    {0x1.999999999999ap-4, "H~", 4, 0x1.8d94c28f5c28fp+14},
    {0x1.999999999999ap-4, "H-bar", 4, 0x1.143bc28f5c28fp+13},
    {0x1.999999999999ap-4, "L~", 8, 0x1.41d23d70a3d71p+10},
    {0x1.999999999999ap-4, "H~", 8, 0x1.ad61b851eb852p+14},
    {0x1.999999999999ap-4, "H-bar", 8, 0x1.5ade333333333p+13},
    {0x1.999999999999ap-4, "L~", 16, 0x1.29a170a3d70a2p+11},
    {0x1.999999999999ap-4, "H~", 16, 0x1.1b3f7d70a3d7p+15},
    {0x1.999999999999ap-4, "H-bar", 16, 0x1.ca581eb851eb8p+13},
    {0x1.999999999999ap-4, "L~", 32, 0x1.551f851eb851ep+12},
    {0x1.999999999999ap-4, "H~", 32, 0x1.96c46e147ae14p+15},
    {0x1.999999999999ap-4, "H-bar", 32, 0x1.1b5ad1eb851ebp+14},
    {0x1.999999999999ap-4, "L~", 64, 0x1.c418851eb851ep+13},
    {0x1.999999999999ap-4, "H~", 64, 0x1.35a45ae147ae2p+16},
    {0x1.999999999999ap-4, "H-bar", 64, 0x1.0fb4666666667p+14},
    {0x1.999999999999ap-4, "L~", 128, 0x1.173c30a3d70a3p+15},
    {0x1.999999999999ap-4, "H~", 128, 0x1.71da5851eb852p+16},
    {0x1.999999999999ap-4, "H-bar", 128, 0x1.485a147ae147bp+14},
    {0x1.999999999999ap-4, "L~", 256, 0x1.0690ee147ae15p+16},
    {0x1.999999999999ap-4, "H~", 256, 0x1.7e84999999998p+17},
    {0x1.999999999999ap-4, "H-bar", 256, 0x1.949d333333334p+13},
};

struct GoldenUnattributedCell {
  double epsilon;
  UnattributedEstimator estimator;
  double total_squared_error;
  double per_count_error;
};

inline constexpr GoldenUnattributedCell kUnattributedCells[] = {
    {0x1p+0, UnattributedEstimator::kSTilde, 0x1.35e126185b873p+9,
     0x1.086e34fce44a6p+1},
    {0x1p+0, UnattributedEstimator::kSTildeRounded, 0x1.9faaaaaaaaaabp+7,
     0x1.62b3c4d5e6f81p-1},
    {0x1p+0, UnattributedEstimator::kSBar, 0x1.ba9cbc346c756p+5,
     0x1.79b21ee50e0b7p-3},
    {0x1.47ae147ae147bp-7, UnattributedEstimator::kSTilde,
     0x1.60bb1406cb1e4p+22, 0x1.2cff36a2cf76p+14},
    {0x1.47ae147ae147bp-7, UnattributedEstimator::kSTildeRounded,
     0x1.3f7e515555556p+21, 0x1.10a26789abcep+13},
    {0x1.47ae147ae147bp-7, UnattributedEstimator::kSBar,
     0x1.90450d3e2c3dbp+16, 0x1.559041e9f5f73p+8},
};

}  // namespace dphist::golden

#endif  // DPHIST_TESTS_EXPERIMENTS_GOLDEN_CELLS_H_
