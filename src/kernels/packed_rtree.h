#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "geometry/bbox.h"

namespace sidq {
namespace kernels {

// Minimum distance between two boxes (0 when they intersect). Operation
// order matches the BoxGap helper the similarity search originally used,
// so gaps computed here are bit-identical to that path. Returns +infinity
// when either box is empty (inverted).
double BoxGap(const geometry::BBox& a, const geometry::BBox& b);

// A read-only, STR-bulk-loaded R-tree packed into contiguous arrays: the
// items in leaf order and the nodes in level order (all leaves first,
// root last), with child ranges stored as [begin, end) index spans
// instead of pointers. Its one reader is BoxGapScan below, which the
// trajectory similarity search uses to stream candidates gap-ascending.
class PackedRTree {
 public:
  struct Item {
    uint64_t id;
    geometry::BBox box;
  };

  // Bulk-loads (replaces) the tree contents with STR packing. Item boxes
  // must be non-empty: an inverted box has a NaN center, which would
  // poison the STR sort (checked).
  void BulkLoad(std::vector<Item> items);

  [[nodiscard]] size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  friend class BoxGapScan;

  // Entries per node, leaves and internal nodes alike (index::RTree's
  // fanout).
  static constexpr size_t kMaxEntries = 16;

  // begin/end index into items_ (leaf nodes) or nodes_ (internal nodes).
  struct Node {
    geometry::BBox box;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  [[nodiscard]] bool IsLeaf(size_t node) const { return node < leaf_count_; }
  [[nodiscard]] int32_t root() const {
    return nodes_.empty() ? -1 : static_cast<int32_t>(nodes_.size()) - 1;
  }

  size_t leaf_count_ = 0;
  std::vector<Item> items_;  // leaf order
  std::vector<Node> nodes_;  // level order: leaves first, root last
};

// Streams the items of a PackedRTree in non-decreasing BoxGap order from a
// query box, expanding nodes lazily (incremental nearest-neighbour search,
// Hjaltason & Samet style). At equal gap, items surface in increasing id
// order -- together with gap-ascending order this reproduces exactly the
// sequence `std::sort` over (gap, id) pairs of ALL items would give,
// without ever materializing the full sorted array, which is what lets the
// similarity search stop scanning as soon as its pruning bound closes.
class BoxGapScan {
 public:
  BoxGapScan(const PackedRTree& tree, const geometry::BBox& query);

  // Advances to the next item; false when the tree is exhausted.
  bool Next(uint64_t* id, double* gap);

 private:
  struct Entry {
    double gap;
    bool is_item;  // nodes order before items at equal gap
    uint64_t key;  // item id, or node index
    bool operator>(const Entry& o) const {
      if (gap != o.gap) return gap > o.gap;
      if (is_item != o.is_item) return is_item && !o.is_item;
      return key > o.key;
    }
  };

  const PackedRTree& tree_;
  geometry::BBox query_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq_;
};

}  // namespace kernels
}  // namespace sidq
