#include "tree/tree_layout.h"

#include <algorithm>

#include "common/check.h"

namespace dphist {

TreeLayout::TreeLayout(std::int64_t leaf_count, std::int64_t branching)
    : branching_(branching), requested_leaf_count_(leaf_count) {
  DPHIST_CHECK_MSG(leaf_count >= 1, "tree needs at least one leaf");
  DPHIST_CHECK_MSG(branching >= 2, "branching factor must be >= 2");

  // Pad to the next power of k; height counts nodes on a root-leaf path.
  leaf_count_ = 1;
  height_ = 1;
  while (leaf_count_ < leaf_count) {
    DPHIST_CHECK_MSG(leaf_count_ <= (INT64_MAX / branching_),
                     "domain too large for this branching factor");
    leaf_count_ *= branching_;
    ++height_;
  }

  level_start_.resize(static_cast<std::size_t>(height_) + 1);
  std::int64_t start = 0;
  std::int64_t width = 1;
  for (std::int64_t d = 0; d < height_; ++d) {
    level_start_[static_cast<std::size_t>(d)] = start;
    start += width;
    width *= branching_;
  }
  level_start_[static_cast<std::size_t>(height_)] = start;
  node_count_ = start;
}

bool TreeLayout::IsLeaf(std::int64_t v) const {
  DPHIST_CHECK(v >= 0 && v < node_count_);
  return v >= level_start_[static_cast<std::size_t>(height_ - 1)];
}

std::int64_t TreeLayout::Parent(std::int64_t v) const {
  DPHIST_CHECK(v > 0 && v < node_count_);
  return (v - 1) / branching_;
}

std::int64_t TreeLayout::FirstChild(std::int64_t v) const {
  DPHIST_CHECK(!IsLeaf(v));
  return v * branching_ + 1;
}

std::vector<std::int64_t> TreeLayout::Children(std::int64_t v) const {
  std::int64_t first = FirstChild(v);
  std::vector<std::int64_t> out(static_cast<std::size_t>(branching_));
  for (std::int64_t i = 0; i < branching_; ++i) out[i] = first + i;
  return out;
}

std::int64_t TreeLayout::Depth(std::int64_t v) const {
  DPHIST_CHECK(v >= 0 && v < node_count_);
  auto it = std::upper_bound(level_start_.begin(), level_start_.end(), v);
  return static_cast<std::int64_t>(it - level_start_.begin()) - 1;
}

std::int64_t TreeLayout::LevelStart(std::int64_t depth) const {
  DPHIST_CHECK(depth >= 0 && depth < height_);
  return level_start_[static_cast<std::size_t>(depth)];
}

std::int64_t TreeLayout::LevelSize(std::int64_t depth) const {
  DPHIST_CHECK(depth >= 0 && depth < height_);
  return level_start_[static_cast<std::size_t>(depth) + 1] -
         level_start_[static_cast<std::size_t>(depth)];
}

Interval TreeLayout::NodeRange(std::int64_t v) const {
  std::int64_t depth = Depth(v);
  std::int64_t index_in_level = v - LevelStart(depth);
  std::int64_t width = leaf_count_;
  for (std::int64_t d = 0; d < depth; ++d) width /= branching_;
  return Interval(index_in_level * width, (index_in_level + 1) * width - 1);
}

std::int64_t TreeLayout::LeafNode(std::int64_t position) const {
  DPHIST_CHECK(position >= 0 && position < leaf_count_);
  return level_start_[static_cast<std::size_t>(height_ - 1)] + position;
}

std::int64_t TreeLayout::LeafPosition(std::int64_t v) const {
  DPHIST_CHECK(IsLeaf(v));
  return v - level_start_[static_cast<std::size_t>(height_ - 1)];
}

}  // namespace dphist
