// Pins the exact bits of the L~, hierarchical and wavelet releases. Every
// value is folded into a CRC-32 of its in-memory bytes, so a changed
// summation order, a -0.0 that became +0.0, a different fast-path choice
// or one extra noise draw all change a checksum. The hierarchical values
// were recorded from the node-at-a-time implementation the
// level-structured passes replaced, the wavelet values from the build
// that copied its padded input and reconstructed leaves; any rewrite of
// the build, inference, pruning or rounding code must reproduce them
// unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "paper/domain/grid.h"
#include "domain/histogram.h"
#include "estimators/universal.h"
#include "paper/estimators/universal2d.h"
#include "estimators/wavelet.h"
#include "inference/hierarchical.h"
#include "inference/nonnegative_pruning.h"
#include "service/snapshot.h"
#include "storage/page.h"

namespace dphist {
namespace {

/// A running CRC-32 over raw bytes (host byte order).
class Pin {
 public:
  void Add(const std::vector<double>& values) {
    crc_ = storage::Crc32(values.data(), values.size() * sizeof(double), crc_);
  }
  void Add(std::uint64_t value) {
    crc_ = storage::Crc32(&value, sizeof(value), crc_);
  }
  void Add(bool value) { Add(static_cast<std::uint64_t>(value)); }
  std::uint32_t crc() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

/// The round/prune settings, as (round, prune) pairs.
constexpr bool kPostProcessing[4][2] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

/// Build seeds, each with its own epsilon so pruning cuts at different
/// depths.
struct BuildSeed {
  std::uint64_t seed;
  double epsilon;
};
constexpr BuildSeed kSeeds[2] = {{1, 0.1}, {2, 1.0}};

Histogram ZipfData(std::int64_t n) {
  Rng rng(1000u + static_cast<std::uint64_t>(n));
  return Histogram::FromCounts(ZipfCounts(n, 1.2, 4 * n, &rng));
}

TEST(ReleasePinTest, HBarAndHTildeBuildsAreBitIdentical) {
  // One checksum per domain size: n = 70000 pads to a partial top level
  // for every k, n = 4096 is an exact power of 2 and 16, n = 1 is a
  // single-node tree.
  const std::int64_t sizes[] = {1, 7, 100, 4096, 70000};
  const std::uint32_t expected_hbar[] = {0x1bff62e7, 0x6fba9673, 0xe0c92524,
                                         0xa8bc98c9, 0x524c9883};
  const std::uint32_t expected_htilde[] = {0x7bda0160, 0xdeb11364, 0x05b18061,
                                           0xe84ab9ad, 0x5c4550a8};
  for (std::size_t s = 0; s < 5; ++s) {
    const Histogram data = ZipfData(sizes[s]);
    Pin hbar;
    Pin htilde;
    for (std::int64_t k : {2, 3, 16}) {
      for (const BuildSeed& build : kSeeds) {
        for (const auto& post : kPostProcessing) {
          UniversalOptions options;
          options.epsilon = build.epsilon;
          options.branching = k;
          options.round_to_nonnegative_integers = post[0];
          options.prune_nonpositive_subtrees = post[1];
          Rng rng(build.seed);
          HBarEstimator est(data, options, &rng);
          hbar.Add(est.node_estimates());
          hbar.Add(est.leaf_estimates());
          hbar.Add(est.uses_prefix_fast_path());
          hbar.Add(static_cast<std::uint64_t>(rng.engine()()));
        }
        // H~'s nodes do not depend on the post-processing settings.
        UniversalOptions options;
        options.epsilon = build.epsilon;
        options.branching = k;
        Rng rng(build.seed);
        HTildeEstimator est(data, options, &rng);
        htilde.Add(est.node_answers());
        htilde.Add(static_cast<std::uint64_t>(rng.engine()()));
      }
    }
    EXPECT_EQ(hbar.crc(), expected_hbar[s]) << "n=" << sizes[s];
    EXPECT_EQ(htilde.crc(), expected_htilde[s]) << "n=" << sizes[s];
  }
}

TEST(ReleasePinTest, WaveletBuildsAreBitIdentical) {
  // n = 7, 100 and 70000 pad to the next power of two, so the leaves are
  // a prefix of the reconstructed transform; n = 1 and 4096 need no
  // padding. The answers pin the rounding on top of the leaves.
  const std::int64_t sizes[] = {1, 7, 100, 4096, 70000};
  const std::uint32_t expected[] = {0x19363d2c, 0xd7f30d5e, 0xa8896db5,
                                    0x94e84872, 0x60596db7};
  for (std::size_t s = 0; s < 5; ++s) {
    const std::int64_t n = sizes[s];
    const Histogram data = ZipfData(n);
    Pin pin;
    for (const BuildSeed& build : kSeeds) {
      for (const bool round : {false, true}) {
        WaveletOptions options;
        options.epsilon = build.epsilon;
        options.round_to_nonnegative_integers = round;
        Rng rng(build.seed);
        const WaveletEstimator est(data, options, &rng);
        pin.Add(est.leaf_estimates());
        std::vector<double> answers;
        for (std::int64_t lo = 0; lo < n; lo += 1 + n / 16) {
          answers.push_back(est.RangeCount(Interval(lo / 2, lo)));
        }
        pin.Add(answers);
        pin.Add(static_cast<std::uint64_t>(rng.engine()()));
      }
    }
    EXPECT_EQ(pin.crc(), expected[s]) << "n=" << n;
  }
}

TEST(ReleasePinTest, LTildeBuildsAreBitIdentical) {
  // The leaves are the data plus one draw each; the answers pin the
  // rounding on top of them.
  const std::int64_t sizes[] = {1, 7, 100, 4096, 70000};
  const std::uint32_t expected[] = {0x19363d2c, 0xc00f5141, 0xc6e8a7a9,
                                    0x4cbf7008, 0xd7635d52};
  for (std::size_t s = 0; s < 5; ++s) {
    const std::int64_t n = sizes[s];
    const Histogram data = ZipfData(n);
    Pin pin;
    for (const BuildSeed& build : kSeeds) {
      for (const bool round : {false, true}) {
        UniversalOptions options;
        options.epsilon = build.epsilon;
        options.round_to_nonnegative_integers = round;
        Rng rng(build.seed);
        const LTildeEstimator est(data, options, &rng);
        pin.Add(est.leaf_estimates());
        std::vector<double> answers;
        for (std::int64_t lo = 0; lo < n; lo += 1 + n / 16) {
          answers.push_back(est.RangeCount(Interval(lo / 2, lo)));
        }
        pin.Add(answers);
        pin.Add(static_cast<std::uint64_t>(rng.engine()()));
      }
    }
    EXPECT_EQ(pin.crc(), expected[s]) << "n=" << n;
  }
}

TEST(ReleasePinTest, ShardedLTildeSnapshotIsBitIdentical) {
  // Each of the three shards draws from a stream forked off the parent in
  // shard order: every answer over the domain pins all three, and the
  // parent's next word pins what the forks took from it.
  const std::int64_t n = 40;
  const Histogram data = ZipfData(n);
  const std::uint32_t expected[] = {0xbb8c56c9, 0xebb8ef0d};
  for (std::size_t b = 0; b < 2; ++b) {
    SnapshotOptions options;
    options.epsilon = kSeeds[b].epsilon;
    options.strategy = StrategyKind::kLTilde;
    options.shards = 3;
    options.round_to_nonnegative_integers = false;
    Rng rng(kSeeds[b].seed);
    auto built = Snapshot::Build(data, options, 1, &rng);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::vector<double> answers;
    for (std::int64_t lo = 0; lo < n; ++lo) {
      for (std::int64_t hi = lo; hi < n; ++hi) {
        answers.push_back(built.value()->RangeCount(Interval(lo, hi)));
      }
    }
    Pin pin;
    pin.Add(answers);
    pin.Add(static_cast<std::uint64_t>(rng.engine()()));
    EXPECT_EQ(pin.crc(), expected[b]) << "seed " << kSeeds[b].seed;
  }
}

TEST(ReleasePinTest, Quad2dBarBuildsAreBitIdentical) {
  const std::int64_t shapes[3][2] = {{1, 1}, {5, 9}, {200, 130}};
  const std::uint32_t expected[] = {0xaf06010e, 0xbf47cbc4, 0xb5afc5cb};
  for (std::size_t s = 0; s < 3; ++s) {
    const std::int64_t rows = shapes[s][0];
    const std::int64_t cols = shapes[s][1];
    Rng data_rng(77u + static_cast<std::uint64_t>(s));
    const GridHistogram data = GridHistogram::FromCounts(
        rows, cols, ZipfCounts(rows * cols, 1.1, 3 * rows * cols, &data_rng));
    Pin pin;
    for (const BuildSeed& build : kSeeds) {
      for (const auto& post : kPostProcessing) {
        Universal2dOptions options;
        options.epsilon = build.epsilon;
        options.round_to_nonnegative_integers = post[0];
        options.prune_nonpositive_subtrees = post[1];
        Rng rng(build.seed);
        Quad2dBarEstimator est(data, options, &rng);
        pin.Add(est.node_estimates());
        pin.Add(static_cast<std::uint64_t>(rng.engine()()));
      }
    }
    EXPECT_EQ(pin.crc(), expected[s]) << rows << "x" << cols;
  }
}

TEST(ReleasePinTest, Quad2dTildeBuildsAreBitIdentical) {
  // Recorded from the build that drew each node's noise with its own
  // Sample call. The answers pin the rectangle decomposition and the
  // rounding on top of the nodes; the next word pins how many draws the
  // build took.
  const std::int64_t shapes[3][2] = {{1, 1}, {5, 9}, {200, 130}};
  const std::uint32_t expected[] = {0xe18c4b98, 0x93cd9d24, 0x5fed1365};
  for (std::size_t s = 0; s < 3; ++s) {
    const std::int64_t rows = shapes[s][0];
    const std::int64_t cols = shapes[s][1];
    Rng data_rng(77u + static_cast<std::uint64_t>(s));
    const GridHistogram data = GridHistogram::FromCounts(
        rows, cols, ZipfCounts(rows * cols, 1.1, 3 * rows * cols, &data_rng));
    Pin pin;
    for (const BuildSeed& build : kSeeds) {
      for (const bool round : {false, true}) {
        Universal2dOptions options;
        options.epsilon = build.epsilon;
        options.round_to_nonnegative_integers = round;
        Rng rng(build.seed);
        const Quad2dTildeEstimator est(data, options, &rng);
        pin.Add(est.node_answers());
        std::vector<double> answers;
        for (std::int64_t r = 0; r < rows; r += 1 + rows / 8) {
          for (std::int64_t c = 0; c < cols; c += 1 + cols / 8) {
            answers.push_back(est.RectCount(Rect(r / 2, r, c / 3, c)));
          }
        }
        pin.Add(answers);
        pin.Add(static_cast<std::uint64_t>(rng.engine()()));
      }
    }
    EXPECT_EQ(pin.crc(), expected[s]) << rows << "x" << cols;
  }
}

TEST(ReleasePinTest, InferenceVectorsAreBitIdentical) {
  const std::int64_t shapes[2][2] = {{100, 3}, {1000, 2}};
  const std::uint32_t expected[] = {0x6dd1deb3, 0x07fd8895};
  for (std::size_t s = 0; s < 2; ++s) {
    const TreeLayout tree(shapes[s][0], shapes[s][1]);
    Rng rng(7);
    std::vector<double> noisy(static_cast<std::size_t>(tree.node_count()));
    for (double& x : noisy) x = rng.NextUniform(-10, 10);
    const HierarchicalInferenceResult result =
        HierarchicalInference(tree, noisy);
    Pin pin;
    pin.Add(result.subtree_estimates);
    pin.Add(result.node_estimates);
    EXPECT_EQ(pin.crc(), expected[s]) << "shape " << s;
  }
}

TEST(ReleasePinTest, PruningIsBitIdenticalOnSignedZeros) {
  // -0.0 and 0.0 are both pruned and come out as +0.0; a kept node keeps
  // its exact value.
  const TreeLayout tree(81, 3);
  Rng rng(13);
  std::vector<double> nodes(static_cast<std::size_t>(tree.node_count()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = rng.NextUniform(-1.0, 4.0);
    if (i % 7 == 3) nodes[i] = -0.0;
    if (i % 11 == 5) nodes[i] = 0.0;
  }
  nodes[0] = 5.0;
  Pin pin;
  pin.Add(nodes);
  pin.Add(PruneNonPositiveSubtrees(tree, nodes));
  EXPECT_EQ(pin.crc(), 0x9d5149aeu);
}

}  // namespace
}  // namespace dphist
