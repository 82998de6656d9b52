#include "sim/road_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "core/logging.h"
#include "geometry/segment.h"

namespace sidq {
namespace sim {

NodeId RoadNetwork::AddNode(const geometry::Point& p) {
  nodes_.push_back(Node{p});
  adjacency_.emplace_back();
  index_built_ = false;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

StatusOr<EdgeId> RoadNetwork::AddEdge(NodeId u, NodeId v) {
  if (u >= nodes_.size() || v >= nodes_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) return Status::InvalidArgument("self-loop edge");
  Edge e;
  e.u = u;
  e.v = v;
  e.length = geometry::Distance(nodes_[u].p, nodes_[v].p);
  edges_.push_back(e);
  const EdgeId id = static_cast<EdgeId>(edges_.size()) - 1;
  adjacency_[u].push_back(id);
  adjacency_[v].push_back(id);
  index_built_ = false;
  return id;
}

geometry::BBox RoadNetwork::Bounds() const {
  geometry::BBox box;
  for (const Node& n : nodes_) box.Extend(n.p);
  return box;
}

NodeId RoadNetwork::Opposite(EdgeId e, NodeId from) const {
  const Edge& edge = edges_[e];
  return edge.u == from ? edge.v : edge.u;
}

StatusOr<std::vector<NodeId>> RoadNetwork::ShortestPath(NodeId from,
                                                        NodeId to) const {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::InvalidArgument("node out of range");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), kInf);
  std::vector<NodeId> prev(nodes_.size(), kInvalidNodeId);
  using QE = std::pair<double, NodeId>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
  dist[from] = 0.0;
  pq.emplace(0.0, from);
  size_t expanded = 0;
  while (!pq.empty()) {
    const auto [d, n] = pq.top();
    pq.pop();
    if (d > dist[n]) continue;
    ++expanded;
    if (n == to) break;
    for (EdgeId eid : adjacency_[n]) {
      const NodeId m = Opposite(eid, n);
      const double nd = d + edges_[eid].length;
      if (nd < dist[m]) {
        dist[m] = nd;
        prev[m] = n;
        pq.emplace(nd, m);
      }
    }
  }
  last_nodes_expanded = expanded;
  if (dist[to] == kInf) return Status::NotFound("no path");
  std::vector<NodeId> path;
  for (NodeId n = to; n != kInvalidNodeId; n = prev[n]) {
    path.push_back(n);
    if (n == from) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != from) return Status::NotFound("no path");
  return path;
}

StatusOr<std::vector<NodeId>> RoadNetwork::ShortestPathAStar(
    NodeId from, NodeId to) const {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::InvalidArgument("node out of range");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const geometry::Point goal = nodes_[to].p;
  std::vector<double> g(nodes_.size(), kInf);
  std::vector<NodeId> prev(nodes_.size(), kInvalidNodeId);
  // (f = g + h, node)
  using QE = std::pair<double, NodeId>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
  g[from] = 0.0;
  pq.emplace(geometry::Distance(nodes_[from].p, goal), from);
  size_t expanded = 0;
  while (!pq.empty()) {
    const auto [f, n] = pq.top();
    pq.pop();
    // Stale entry check against the best-known f for n.
    if (f > g[n] + geometry::Distance(nodes_[n].p, goal) + 1e-9) continue;
    ++expanded;
    if (n == to) break;
    for (EdgeId eid : adjacency_[n]) {
      const NodeId m = Opposite(eid, n);
      const double ng = g[n] + edges_[eid].length;
      if (ng < g[m]) {
        g[m] = ng;
        prev[m] = n;
        pq.emplace(ng + geometry::Distance(nodes_[m].p, goal), m);
      }
    }
  }
  last_nodes_expanded = expanded;
  if (g[to] == kInf) return Status::NotFound("no path");
  std::vector<NodeId> path;
  for (NodeId n = to; n != kInvalidNodeId; n = prev[n]) {
    path.push_back(n);
    if (n == from) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != from) return Status::NotFound("no path");
  return path;
}

double RoadNetwork::ShortestPathLength(NodeId from, NodeId to) const {
  auto path = ShortestPath(from, to);
  if (!path.ok()) return std::numeric_limits<double>::infinity();
  double len = 0.0;
  const std::vector<NodeId>& p = path.value();
  for (size_t i = 1; i < p.size(); ++i) {
    len += geometry::Distance(nodes_[p[i - 1]].p, nodes_[p[i]].p);
  }
  return len;
}

void RoadNetwork::BuildSpatialIndex(double cell_size) {
  edge_index_ = index::GridIndex(cell_size);
  max_edge_length_ = 0.0;
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const geometry::Point mid =
        geometry::Lerp(nodes_[edges_[e].u].p, nodes_[edges_[e].v].p, 0.5);
    edge_index_.Insert(e, mid);
    max_edge_length_ = std::max(max_edge_length_, edges_[e].length);
  }
  index_built_ = true;
}

std::vector<EdgeId> RoadNetwork::EdgesNear(const geometry::Point& p,
                                           double radius) const {
  SIDQ_CHECK(index_built_) << "call BuildSpatialIndex() first";
  std::vector<EdgeId> out;
  // A point within `radius` of an edge is within radius + len/2 of its
  // midpoint.
  const auto ids =
      edge_index_.RadiusQuery(p, radius + max_edge_length_ / 2.0);
  for (uint64_t id : ids) {
    const EdgeId e = static_cast<EdgeId>(id);
    if (DistanceToEdge(e, p) <= radius) out.push_back(e);
  }
  return out;
}

StatusOr<EdgeId> RoadNetwork::NearestEdge(const geometry::Point& p) const {
  SIDQ_CHECK(index_built_) << "call BuildSpatialIndex() first";
  if (edges_.empty()) return Status::NotFound("no edges");
  // Expanding radius search; falls back to a full scan if needed.
  double radius = max_edge_length_;
  for (int attempt = 0; attempt < 8; ++attempt) {
    EdgeId best = kInvalidEdgeId;
    double best_d = std::numeric_limits<double>::infinity();
    for (EdgeId e : EdgesNear(p, radius)) {
      const double d = DistanceToEdge(e, p);
      if (d < best_d) {
        best_d = d;
        best = e;
      }
    }
    if (best != kInvalidEdgeId) return best;
    radius *= 4.0;
  }
  EdgeId best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const double d = DistanceToEdge(e, p);
    if (d < best_d) {
      best_d = d;
      best = e;
    }
  }
  return best;
}

StatusOr<NodeId> RoadNetwork::NearestNode(const geometry::Point& p) const {
  if (nodes_.empty()) return Status::NotFound("no nodes");
  NodeId best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const double d = geometry::DistanceSq(nodes_[n].p, p);
    if (d < best_d) {
      best_d = d;
      best = n;
    }
  }
  return best;
}

geometry::Point RoadNetwork::ProjectToEdge(EdgeId e,
                                           const geometry::Point& p) const {
  const Edge& edge = edges_[e];
  return geometry::ClosestPointOnSegment(p, nodes_[edge.u].p,
                                         nodes_[edge.v].p);
}

double RoadNetwork::DistanceToEdge(EdgeId e, const geometry::Point& p) const {
  const Edge& edge = edges_[e];
  return geometry::PointSegmentDistance(p, nodes_[edge.u].p, nodes_[edge.v].p);
}

RoadNetwork MakeGridRoadNetwork(int cols, int rows, double spacing,
                                double jitter, double drop_edge_prob,
                                Rng* rng) {
  SIDQ_CHECK(cols >= 2 && rows >= 2) << "grid must be at least 2x2";
  RoadNetwork net;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double x = c * spacing + rng->Gaussian(0.0, jitter);
      const double y = r * spacing + rng->Gaussian(0.0, jitter);
      net.AddNode(geometry::Point(x, y));
    }
  }
  auto id_of = [cols](int r, int c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols && !rng->Bernoulli(drop_edge_prob)) {
        SIDQ_CHECK(net.AddEdge(id_of(r, c), id_of(r, c + 1)).ok());
      }
      if (r + 1 < rows && !rng->Bernoulli(drop_edge_prob)) {
        SIDQ_CHECK(net.AddEdge(id_of(r, c), id_of(r + 1, c)).ok());
      }
    }
  }
  net.BuildSpatialIndex(spacing);
  return net;
}

StatusOr<std::vector<NodeId>> RandomRoute(const RoadNetwork& net,
                                          size_t min_hops, Rng* rng) {
  if (net.num_nodes() == 0) return Status::FailedPrecondition("empty network");
  for (int attempt = 0; attempt < 32; ++attempt) {
    const NodeId start = static_cast<NodeId>(
        rng->UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
    std::vector<NodeId> route{start};
    NodeId prev = kInvalidNodeId;
    NodeId cur = start;
    while (route.size() < min_hops) {
      const auto& inc = net.incident_edges(cur);
      std::vector<NodeId> candidates;
      for (EdgeId e : inc) {
        const NodeId next = net.Opposite(e, cur);
        if (next != prev) candidates.push_back(next);
      }
      if (candidates.empty()) break;
      const NodeId next = candidates[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(candidates.size()) - 1))];
      route.push_back(next);
      prev = cur;
      cur = next;
    }
    if (route.size() >= min_hops) return route;
  }
  return Status::Internal("could not generate route; network too sparse");
}

}  // namespace sim
}  // namespace sidq
