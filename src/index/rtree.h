#pragma once

#include <cstdint>
#include <vector>

#include "geometry/bbox.h"
#include "geometry/point.h"

namespace sidq {
namespace index {

// A standalone dynamic R-tree over rectangles: Sort-Tile-Recursive (STR)
// bulk load plus quadratic-split inserts. No library code calls it; it is
// covered by index_test and edge_cases_test and timed by bench_micro. The
// similarity search's read-only index is kernels::PackedRTree.
class RTree {
 public:
  struct Item {
    uint64_t id;
    geometry::BBox box;
  };

  explicit RTree(size_t max_entries = 16);

  // Bulk-loads (replaces) the tree contents with STR packing.
  void BulkLoad(std::vector<Item> items);
  // Dynamic insert with quadratic split.
  void Insert(uint64_t id, const geometry::BBox& box);

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] int height() const;

  // Ids of items whose box intersects `query`.
  [[nodiscard]] std::vector<uint64_t> RangeQuery(const geometry::BBox& query) const;
  // Ids of the k items nearest to `q` by box MinDistance (best-first).
  [[nodiscard]] std::vector<uint64_t> Knn(const geometry::Point& q, size_t k) const;
  // Number of nodes visited by the last RangeQuery (pruning statistics).
  mutable size_t last_nodes_visited = 0;

 private:
  struct Node {
    geometry::BBox box;
    std::vector<int32_t> children;  // internal nodes
    std::vector<Item> items;        // leaves
    bool leaf = true;
  };

  int32_t NewNode(bool leaf);
  void RecomputeBox(int32_t n);
  int32_t ChooseLeaf(int32_t n, const geometry::BBox& box, int level,
                     std::vector<int32_t>* path) const;
  // Splits node `n` in two (quadratic split); returns the new sibling.
  int32_t SplitNode(int32_t n);
  int32_t BuildStr(std::vector<Item>* items, size_t begin, size_t end);

  size_t max_entries_;
  size_t size_ = 0;
  int32_t root_ = -1;
  std::vector<Node> nodes_;
};

}  // namespace index
}  // namespace sidq
