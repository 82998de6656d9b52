#include "kernels/packed_rtree.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace sidq {
namespace kernels {

double BoxGap(const geometry::BBox& a, const geometry::BBox& b) {
  const double dx = std::max({a.min_x - b.max_x, b.min_x - a.max_x, 0.0});
  const double dy = std::max({a.min_y - b.max_y, b.min_y - a.max_y, 0.0});
  return std::sqrt(dx * dx + dy * dy);
}

void PackedRTree::BulkLoad(std::vector<Item> items) {
  items_ = std::move(items);
  nodes_.clear();
  leaf_count_ = 0;
  if (items_.empty()) return;
  const size_t n = items_.size();
  for (const Item& it : items_) {
    // An inverted box has a NaN center, which would break the strict weak
    // ordering of the STR sorts below.
    SIDQ_CHECK(!it.box.Empty()) << "PackedRTree: empty item box";
  }

  if (n > kMaxEntries) {
    // STR: P = ceil(n / M) leaf pages, S = ceil(sqrt(P)) vertical slices;
    // sort by center x, then each slice by center y.
    const size_t pages = (n + kMaxEntries - 1) / kMaxEntries;
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(pages))));
    const size_t slice_cap = (n + slices - 1) / slices;
    std::sort(items_.begin(), items_.end(),
              [](const Item& a, const Item& b) {
                return a.box.Center().x < b.box.Center().x;
              });
    for (size_t s = 0; s < n; s += slice_cap) {
      const size_t s_end = std::min(s + slice_cap, n);
      std::sort(items_.begin() + s, items_.begin() + s_end,
                [](const Item& a, const Item& b) {
                  return a.box.Center().y < b.box.Center().y;
                });
    }
  }

  // Exact node count across all levels, so the level packing below never
  // reallocates (node construction is cold, but iterator stability over
  // nodes_ during the parent pass matters).
  size_t total_nodes = 0;
  for (size_t level = (n + kMaxEntries - 1) / kMaxEntries; level > 1;
       level = (level + kMaxEntries - 1) / kMaxEntries) {
    total_nodes += level;
  }
  nodes_.reserve(total_nodes + 1);

  // Leaf level: consecutive runs of kMaxEntries items.
  for (size_t p = 0; p < n; p += kMaxEntries) {
    const size_t p_end = std::min(p + kMaxEntries, n);
    Node leaf;
    leaf.begin = static_cast<uint32_t>(p);
    leaf.end = static_cast<uint32_t>(p_end);
    for (size_t i = p; i < p_end; ++i) leaf.box.Extend(items_[i].box);
    nodes_.push_back(leaf);
  }
  leaf_count_ = nodes_.size();

  // Pack each level into the next until a single root remains. Children of
  // consecutive parents are consecutive nodes, so a [begin, end) span per
  // parent suffices.
  size_t level_begin = 0;
  size_t level_end = nodes_.size();
  while (level_end - level_begin > 1) {
    for (size_t i = level_begin; i < level_end; i += kMaxEntries) {
      const size_t i_end = std::min(i + kMaxEntries, level_end);
      Node parent;
      parent.begin = static_cast<uint32_t>(i);
      parent.end = static_cast<uint32_t>(i_end);
      for (size_t c = i; c < i_end; ++c) parent.box.Extend(nodes_[c].box);
      nodes_.push_back(parent);
    }
    level_begin = level_end;
    level_end = nodes_.size();
  }
}

BoxGapScan::BoxGapScan(const PackedRTree& tree, const geometry::BBox& query)
    : tree_(tree), query_(query) {
  if (!tree_.nodes_.empty()) {
    pq_.push(Entry{BoxGap(query_, tree_.nodes_.back().box), false,
                   static_cast<uint64_t>(tree_.root())});
  }
}

bool BoxGapScan::Next(uint64_t* id, double* gap) {
  while (!pq_.empty()) {
    const Entry e = pq_.top();
    pq_.pop();
    if (e.is_item) {
      *id = e.key;
      *gap = e.gap;
      return true;
    }
    const PackedRTree::Node& node = tree_.nodes_[e.key];
    if (tree_.IsLeaf(static_cast<size_t>(e.key))) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const PackedRTree::Item& it = tree_.items_[i];
        pq_.push(Entry{BoxGap(query_, it.box), true, it.id});
      }
    } else {
      for (uint32_t c = node.begin; c < node.end; ++c) {
        pq_.push(Entry{BoxGap(query_, tree_.nodes_[c].box), false,
                       static_cast<uint64_t>(c)});
      }
    }
  }
  return false;
}

}  // namespace kernels
}  // namespace sidq
