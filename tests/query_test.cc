#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "force_isa_guard.h"
#include "kernels/dispatch.h"
#include "query/continuous.h"
#include "query/partition.h"
#include "query/uncertain_point.h"
#include "query/uncertain_trajectory.h"
#include "sim/trajectory_sim.h"

namespace sidq {
namespace query {
namespace {

using geometry::BBox;
using geometry::Point;

// ---------------------------------------------------------- UncertainPoint

TEST(UncertainPointTest, GaussianProbInBox) {
  const auto p = UncertainPoint::MakeGaussian(1, Point(0, 0), 10.0);
  // Whole plane ~ 1.
  EXPECT_NEAR(p.ProbInBox(BBox(-1000, -1000, 1000, 1000)), 1.0, 1e-9);
  // Half plane (x >= 0) ~ 0.5.
  EXPECT_NEAR(p.ProbInBox(BBox(0, -1000, 1000, 1000)), 0.5, 1e-6);
  // Quadrant ~ 0.25.
  EXPECT_NEAR(p.ProbInBox(BBox(0, 0, 1000, 1000)), 0.25, 1e-6);
  // Far away ~ 0.
  EXPECT_LT(p.ProbInBox(BBox(100, 100, 200, 200)), 1e-9);
}

TEST(UncertainPointTest, DiscreteProbInBox) {
  auto p = UncertainPoint::MakeDiscrete(
      2, {{Point(0, 0), 2.0}, {Point(10, 0), 1.0}, {Point(20, 0), 1.0}});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->ProbInBox(BBox(-1, -1, 1, 1)), 0.5, 1e-12);
  EXPECT_NEAR(p->ProbInBox(BBox(5, -1, 25, 1)), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(p->ProbInBox(BBox(100, 100, 101, 101)), 0.0);
}

TEST(UncertainPointTest, DiscreteValidation) {
  EXPECT_FALSE(UncertainPoint::MakeDiscrete(1, {}).ok());
  EXPECT_FALSE(
      UncertainPoint::MakeDiscrete(1, {{Point(0, 0), -1.0}}).ok());
  EXPECT_FALSE(UncertainPoint::MakeDiscrete(1, {{Point(0, 0), 0.0}}).ok());
}

TEST(UncertainPointTest, ExpectedDistanceGaussianMatchesMonteCarlo) {
  Rng rng(1);
  const double sigma = 8.0;
  const auto p = UncertainPoint::MakeGaussian(1, Point(50, 0), sigma);
  for (const Point q : {Point(50, 0), Point(60, 0), Point(50, 30),
                        Point(200, 0)}) {
    double mc = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
      const Point sample(50 + rng.Gaussian(0, sigma),
                         rng.Gaussian(0, sigma));
      mc += geometry::Distance(sample, q);
    }
    mc /= n;
    EXPECT_NEAR(p.ExpectedDistance(q), mc, mc * 0.02 + 0.05)
        << "q=(" << q.x << "," << q.y << ")";
  }
}

TEST(UncertainPointTest, ExpectedDistanceDiscrete) {
  auto p = UncertainPoint::MakeDiscrete(
      1, {{Point(0, 0), 1.0}, {Point(10, 0), 1.0}});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->ExpectedDistance(Point(0, 0)), 5.0);
}

TEST(UncertainPointTest, BoundingRegion) {
  const auto g = UncertainPoint::MakeGaussian(1, Point(0, 0), 10.0);
  const BBox region = g.BoundingRegion(3.0);
  EXPECT_DOUBLE_EQ(region.min_x, -30.0);
  EXPECT_DOUBLE_EQ(region.max_y, 30.0);
  auto d = UncertainPoint::MakeDiscrete(
      2, {{Point(-5, 0), 1.0}, {Point(7, 3), 1.0}});
  ASSERT_TRUE(d.ok());
  const BBox db = d->BoundingRegion();
  EXPECT_DOUBLE_EQ(db.min_x, -5.0);
  EXPECT_DOUBLE_EQ(db.max_x, 7.0);
}

// ------------------------------------------------- ProbabilisticRangeQuery

std::vector<UncertainPoint> RandomObjects(size_t n, double extent,
                                          double sigma, uint64_t seed) {
  Rng rng(seed);
  std::vector<UncertainPoint> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(UncertainPoint::MakeGaussian(
        i, Point(rng.Uniform(0, extent), rng.Uniform(0, extent)), sigma));
  }
  return out;
}

TEST(ProbRangeTest, MatchesExhaustiveEvaluation) {
  const auto objects = RandomObjects(300, 2000.0, 20.0, 2);
  const BBox box(400, 400, 900, 1100);
  for (double tau : {0.1, 0.5, 0.9}) {
    PruningStats stats;
    auto got = ProbabilisticRangeQuery(objects, box, tau, &stats);
    std::vector<ObjectId> want;
    for (const auto& obj : objects) {
      if (obj.ProbInBox(box) >= tau) want.push_back(obj.id());
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "tau=" << tau;
    EXPECT_EQ(stats.total_objects, objects.size());
    // Pruning must have skipped a decent share of exact evaluations.
    EXPECT_GT(stats.PrunedFraction(), 0.5);
  }
}

TEST(ProbRangeTest, EmptyBoxNoResults) {
  const auto objects = RandomObjects(10, 100.0, 5.0, 3);
  EXPECT_TRUE(
      ProbabilisticRangeQuery(objects, BBox(), 0.5).empty());
}

// The batched form sweeps a columnar mirror of the bounding regions but
// must be indistinguishable from running the solo query per box:
// identical id sequences AND identical pruning statistics.
TEST(ProbRangeTest, BatchedManyMatchesSoloPerBox) {
  const auto objects = RandomObjects(300, 2000.0, 20.0, 12);
  Rng rng(13);
  std::vector<BBox> boxes;
  for (int i = 0; i < 25; ++i) {
    const double x = rng.Uniform(0, 1800), y = rng.Uniform(0, 1800);
    boxes.emplace_back(x, y, x + rng.Uniform(10, 400),
                       y + rng.Uniform(10, 400));
  }
  boxes.push_back(BBox());                          // empty box
  boxes.emplace_back(-1e6, -1e6, 1e6, 1e6);         // contains everything
  for (double tau : {0.1, 0.5, 0.9, 1.0}) {
    std::vector<PruningStats> batch_stats;
    const auto batch =
        ProbabilisticRangeQueryMany(objects, boxes, tau, &batch_stats);
    ASSERT_EQ(batch.size(), boxes.size());
    ASSERT_EQ(batch_stats.size(), boxes.size());
    for (size_t q = 0; q < boxes.size(); ++q) {
      PruningStats solo_stats;
      const auto solo =
          ProbabilisticRangeQuery(objects, boxes[q], tau, &solo_stats);
      EXPECT_EQ(batch[q], solo) << "box " << q << " tau " << tau;
      EXPECT_EQ(batch_stats[q].total_objects, solo_stats.total_objects);
      EXPECT_EQ(batch_stats[q].pruned_out, solo_stats.pruned_out);
      EXPECT_EQ(batch_stats[q].accepted_cheap, solo_stats.accepted_cheap);
      EXPECT_EQ(batch_stats[q].evaluated_exact, solo_stats.evaluated_exact);
    }
  }
}

void ExpectSameStats(const PruningStats& got, const PruningStats& want) {
  EXPECT_EQ(got.total_objects, want.total_objects);
  EXPECT_EQ(got.pruned_out, want.pruned_out);
  EXPECT_EQ(got.accepted_cheap, want.accepted_cheap);
  EXPECT_EQ(got.evaluated_exact, want.evaluated_exact);
}

// The sweep runs the dispatched leaf_scan in chunks of kLeafScanMaxCount;
// object counts on both sides of the chunk seam, a NaN-mean object (its
// region compares false everywhere) and every ISA tier must all leave the
// per-box answer equal to the solo query's.
TEST(ProbRangeTest, BatchedSweepMatchesSoloAtEveryIsaTier) {
  static_assert(kernels::kLeafScanMaxCount == 256);
  kernels::ForceIsaGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int t = 0; t < kernels::kIsaCount; ++t) {
    const kernels::Isa isa = static_cast<kernels::Isa>(t);
    if (!kernels::KernelDispatch::Available(isa)) continue;
    guard.Force(kernels::IsaName(isa));
    ASSERT_EQ(kernels::KernelDispatch::Active(), isa);
    for (size_t n : {255, 256, 257, 1000}) {
      auto objects = RandomObjects(n, 2000.0, 20.0, 40 + n);
      const size_t nan_at = n / 2;
      objects[nan_at] =
          UncertainPoint::MakeGaussian(nan_at, Point(nan, nan), 20.0);
      Rng rng(n);
      std::vector<BBox> boxes;
      for (int i = 0; i < 12; ++i) {
        const double x = rng.Uniform(0, 1800), y = rng.Uniform(0, 1800);
        boxes.emplace_back(x, y, x + rng.Uniform(10, 600),
                           y + rng.Uniform(10, 600));
      }
      boxes.push_back(BBox());                   // empty box
      boxes.emplace_back(-1e6, -1e6, 1e6, 1e6);  // contains everything
      for (double tau : {0.1, 0.5, 1.0}) {
        SCOPED_TRACE(testing::Message() << kernels::IsaName(isa) << " n=" << n
                                        << " tau=" << tau);
        std::vector<PruningStats> batch_stats;
        const auto batch =
            ProbabilisticRangeQueryMany(objects, boxes, tau, &batch_stats);
        ASSERT_EQ(batch.size(), boxes.size());
        ASSERT_EQ(batch_stats.size(), boxes.size());
        for (size_t q = 0; q < boxes.size(); ++q) {
          PruningStats solo_stats;
          const auto solo =
              ProbabilisticRangeQuery(objects, boxes[q], tau, &solo_stats);
          EXPECT_EQ(batch[q], solo) << "box " << q;
          ExpectSameStats(batch_stats[q], solo_stats);
          EXPECT_EQ(std::count(batch[q].begin(), batch[q].end(), nan_at), 0)
              << "box " << q;
        }
        // The empty box prunes everything; the all-containing box prunes
        // exactly the NaN object, on both paths.
        EXPECT_EQ(batch_stats[boxes.size() - 2].pruned_out, n);
        EXPECT_EQ(batch_stats.back().pruned_out, 1u);
      }
    }
  }
}

TEST(ProbRangeTest, BatchedManyHandlesEmptyInputs) {
  EXPECT_TRUE(ProbabilisticRangeQueryMany({}, {}, 0.5).empty());
  const auto no_objects =
      ProbabilisticRangeQueryMany({}, {BBox(0, 0, 1, 1)}, 0.5);
  ASSERT_EQ(no_objects.size(), 1u);
  EXPECT_TRUE(no_objects[0].empty());
  const auto objects = RandomObjects(20, 100.0, 5.0, 14);
  EXPECT_TRUE(ProbabilisticRangeQueryMany(objects, {}, 0.5).empty());
}

// ----------------------------------------------------- ExpectedDistanceKnn

TEST(KnnTest, MatchesExhaustiveRanking) {
  const auto objects = RandomObjects(200, 1000.0, 15.0, 4);
  const Point q(500, 500);
  PruningStats stats;
  const auto got = ExpectedDistanceKnn(objects, q, 10, &stats);
  // Exhaustive.
  std::vector<std::pair<double, ObjectId>> all;
  for (const auto& obj : objects) {
    all.emplace_back(obj.ExpectedDistance(q), obj.id());
  }
  std::sort(all.begin(), all.end());
  std::vector<ObjectId> want;
  for (size_t i = 0; i < 10; ++i) want.push_back(all[i].second);
  EXPECT_EQ(got, want);
  EXPECT_GT(stats.pruned_out, 0u);
}

// The kNN walk as it was before the lazy heap: fully sort (lower bound,
// index) and skip every object from the first prune on. The heap walk
// must reproduce its ids and stats exactly.
std::vector<ObjectId> FullSortKnn(const std::vector<UncertainPoint>& objects,
                                  const Point& q, size_t k,
                                  PruningStats* stats) {
  PruningStats local;
  local.total_objects = objects.size();
  if (k == 0 || objects.empty()) {
    *stats = local;
    return {};
  }
  std::vector<std::pair<double, size_t>> order;
  for (size_t i = 0; i < objects.size(); ++i) {
    order.emplace_back(objects[i].BoundingRegion().MinDistance(q), i);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::pair<double, ObjectId>> best;
  for (const auto& [lower_bound, i] : order) {
    if (best.size() == k && lower_bound >= best.front().first) {
      ++local.pruned_out;
      continue;
    }
    ++local.evaluated_exact;
    const double ed = objects[i].ExpectedDistance(q);
    if (best.size() < k) {
      best.emplace_back(ed, objects[i].id());
      std::push_heap(best.begin(), best.end());
    } else if (ed < best.front().first) {
      std::pop_heap(best.begin(), best.end());
      best.back() = {ed, objects[i].id()};
      std::push_heap(best.begin(), best.end());
    }
  }
  std::sort_heap(best.begin(), best.end());
  std::vector<ObjectId> out;
  for (const auto& [ed, id] : best) out.push_back(id);
  *stats = local;
  return out;
}

TEST(KnnTest, HeapWalkMatchesFullSortWalk) {
  // Every grid point carries two objects with the same sigma and a few
  // carry a third with a wider one, so lower bounds and expected
  // distances tie constantly; one discrete-pdf object sits among them.
  std::vector<UncertainPoint> objects;
  ObjectId id = 0;
  for (int gx = 0; gx < 10; ++gx) {
    for (int gy = 0; gy < 10; ++gy) {
      const Point p(10.0 * gx, 10.0 * gy);
      objects.push_back(UncertainPoint::MakeGaussian(id++, p, 2.0));
      objects.push_back(UncertainPoint::MakeGaussian(id++, p, 2.0));
      if ((gx + gy) % 3 == 0) {
        objects.push_back(UncertainPoint::MakeGaussian(id++, p, 5.0));
      }
    }
  }
  auto discrete = UncertainPoint::MakeDiscrete(
      id++, {{Point(40, 40), 1.0}, {Point(50, 40), 1.0}, {Point(40, 60), 2.0}});
  ASSERT_TRUE(discrete.ok());
  objects.insert(objects.begin() + 37, *discrete);
  const size_t n = objects.size();
  for (const Point& q : {Point(45, 45), Point(0, 0), Point(40, 40),
                         Point(-30, 200)}) {
    for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n, n + 5}) {
      SCOPED_TRACE(testing::Message()
                   << "q=(" << q.x << "," << q.y << ") k=" << k);
      PruningStats got_stats, want_stats;
      const auto got = ExpectedDistanceKnn(objects, q, k, &got_stats);
      const auto want = FullSortKnn(objects, q, k, &want_stats);
      EXPECT_EQ(got, want);
      ExpectSameStats(got_stats, want_stats);
      EXPECT_EQ(got.size(), std::min(k, n));
    }
  }
}

TEST(KnnTest, EdgeCases) {
  const auto objects = RandomObjects(5, 100.0, 5.0, 5);
  EXPECT_TRUE(ExpectedDistanceKnn(objects, Point(0, 0), 0).empty());
  EXPECT_EQ(ExpectedDistanceKnn(objects, Point(0, 0), 10).size(), 5u);
  EXPECT_TRUE(ExpectedDistanceKnn({}, Point(0, 0), 3).empty());
}

// ---------------------------------------------------------------- BeadModel

Trajectory TwoPointTrack() {
  Trajectory tr(1);
  tr.AppendUnordered(TrajectoryPoint(0, Point(0, 0)));
  tr.AppendUnordered(TrajectoryPoint(100'000, Point(1000, 0)));
  return tr;
}

TEST(BeadModelTest, LensShrinksAtEndpoints) {
  const Trajectory tr = TwoPointTrack();
  const BeadModel model(&tr, 20.0);  // vmax 20 m/s, straight speed 10 m/s
  // At t=0 the object is exactly at the sample.
  EXPECT_TRUE(model.PossiblyAt(Point(0, 0), 0));
  EXPECT_FALSE(model.PossiblyAt(Point(100, 0), 0));
  // Midpoint in time: reachable lens around (500, 0).
  EXPECT_TRUE(model.PossiblyAt(Point(500, 0), 50'000));
  EXPECT_TRUE(model.PossiblyAt(Point(500, 300), 50'000));
  // Too far off the axis: |p-a| + |p-b| > vmax * 100s = 2000.
  EXPECT_FALSE(model.PossiblyAt(Point(500, 900), 50'000));
  // Outside the time span.
  EXPECT_FALSE(model.PossiblyAt(Point(0, 0), -1));
}

TEST(BeadModelTest, PossiblyAndDefinitelyInside) {
  const Trajectory tr = TwoPointTrack();
  const BeadModel model(&tr, 12.0);
  // A generous box containing every lens.
  const BBox everything(-300, -700, 1300, 700);
  EXPECT_TRUE(model.PossiblyInside(everything, 0, 100'000));
  EXPECT_TRUE(model.DefinitelyInside(everything, 0, 100'000));
  // A small box off the path.
  const BBox off_path(0, 500, 100, 600);
  EXPECT_FALSE(model.PossiblyInside(off_path, 0, 100'000));
  // A box on the path: possible but not definite.
  const BBox on_path(400, -50, 600, 50);
  EXPECT_TRUE(model.PossiblyInside(on_path, 30'000, 70'000));
  EXPECT_FALSE(model.DefinitelyInside(on_path, 0, 100'000));
}

TEST(UncertainRangeTest, SeparatesPossibleAndDefinite) {
  Rng rng(6);
  std::vector<Trajectory> trs;
  // Object 0 passes through the box; object 1 stays far away.
  Trajectory a(0);
  a.AppendUnordered(TrajectoryPoint(0, Point(0, 0)));
  a.AppendUnordered(TrajectoryPoint(60'000, Point(600, 0)));
  Trajectory b(1);
  b.AppendUnordered(TrajectoryPoint(0, Point(0, 10'000)));
  b.AppendUnordered(TrajectoryPoint(60'000, Point(600, 10'000)));
  trs.push_back(a);
  trs.push_back(b);
  const auto result = UncertainTrajectoryRange(
      trs, 15.0, BBox(200, -100, 400, 100), 0, 60'000);
  ASSERT_EQ(result.possible.size(), 1u);
  EXPECT_EQ(result.possible[0], 0u);
  EXPECT_TRUE(result.definite.empty());
}

// ------------------------------------------------------------- MarkovGrid

TEST(MarkovGridTest, MassConcentratesNearInterpolation) {
  const Trajectory tr = TwoPointTrack();
  MarkovGridModel::Options opts;
  opts.cell_m = 100.0;
  opts.steps_per_interval = 6;
  const MarkovGridModel model(&tr, opts);
  // At mid time, probability near the midpoint must dominate an equally
  // sized box far off the path.
  const double near_mid =
      model.ProbInBox(BBox(300, -200, 700, 200), 50'000);
  const double off_path =
      model.ProbInBox(BBox(300, 400, 700, 800), 50'000);
  EXPECT_GT(near_mid, 10.0 * std::max(off_path, 1e-12));
  // Outside the span: zero.
  EXPECT_DOUBLE_EQ(model.ProbInBox(BBox(0, 0, 100, 100), -5), 0.0);
}

TEST(MarkovGridTest, TotalMassIsOne) {
  const Trajectory tr = TwoPointTrack();
  const MarkovGridModel model(&tr);
  const double total =
      model.ProbInBox(BBox(-100000, -100000, 100000, 100000), 50'000);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ------------------------------------------------------------- SafeRegion

TEST(SafeRegionTest, SavesMessagesOnSmoothMotion) {
  Rng rng(7);
  SafeRegionMonitor monitor(BBox(400, 400, 900, 900));
  sim::TrajectorySimulator simulator({}, &rng);
  const Trajectory tr =
      simulator.RandomWaypoint(BBox(0, 0, 1200, 1200), 2000, 1);
  for (const auto& pt : tr.points()) {
    monitor.ProcessUpdate(1, pt.p);
  }
  EXPECT_EQ(monitor.updates_processed(), 2000u);
  EXPECT_LT(monitor.messages_sent(), 800u);
  EXPECT_GT(monitor.MessageSavings(), 0.6);
}

TEST(SafeRegionTest, ResultAlwaysCorrect) {
  Rng rng(8);
  const BBox range(300, 300, 700, 700);
  SafeRegionMonitor monitor(range);
  sim::TrajectorySimulator simulator({}, &rng);
  const Trajectory tr =
      simulator.RandomWaypoint(BBox(0, 0, 1000, 1000), 1000, 5);
  for (const auto& pt : tr.points()) {
    monitor.ProcessUpdate(5, pt.p);
    // The server's belief must match reality at every step: safe regions
    // guarantee no stale inside/outside status.
    EXPECT_EQ(monitor.inside().count(5) > 0, range.Contains(pt.p));
  }
}

TEST(SafeRegionTest, FirstUpdateAlwaysReports) {
  SafeRegionMonitor monitor(BBox(0, 0, 10, 10));
  EXPECT_TRUE(monitor.ProcessUpdate(1, Point(5, 5)));
  EXPECT_FALSE(monitor.ProcessUpdate(1, Point(5.5, 5.5)));
}

// -------------------------------------------------------------- Partition

std::vector<Point> SkewedPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.8)) {
      // Hotspot cluster.
      pts.emplace_back(rng.Gaussian(100, 30), rng.Gaussian(100, 30));
    } else {
      pts.emplace_back(rng.Uniform(0, 4000), rng.Uniform(0, 4000));
    }
  }
  return pts;
}

TEST(PartitionTest, UniformGridSuffersUnderSkew) {
  const auto pts = SkewedPoints(5000, 9);
  const auto uniform = UniformGridPartition(pts, 8, 8);
  const auto stats = ComputeStats(uniform);
  EXPECT_EQ(stats.num_partitions, 64u);
  EXPECT_GT(stats.imbalance, 10.0);
}

TEST(PartitionTest, AdaptiveBoundsLoad) {
  const auto pts = SkewedPoints(5000, 9);
  const auto adaptive = AdaptiveQuadPartition(pts, 200);
  const auto stats = ComputeStats(adaptive);
  EXPECT_LE(stats.max_load, 200u);
  const auto uniform_stats = ComputeStats(UniformGridPartition(pts, 8, 8));
  EXPECT_LT(stats.imbalance, uniform_stats.imbalance);
  // Every point lands in exactly one partition.
  size_t total = 0;
  for (const auto& p : adaptive) total += p.load;
  EXPECT_EQ(total, pts.size());
}

TEST(PartitionTest, EmptyInput) {
  EXPECT_TRUE(UniformGridPartition({}, 4, 4).empty());
  EXPECT_TRUE(AdaptiveQuadPartition({}, 10).empty());
}

// ------------------------------------------------------- RangeCount/PNN

TEST(RangeCountTest, MatchesBinomialOnIdenticalObjects) {
  // 10 objects each with inclusion probability ~0.5: count ~ Binomial(10, p).
  std::vector<UncertainPoint> objects;
  const BBox box(0, -1000, 1000, 1000);  // half-plane cut at x=0
  for (int i = 0; i < 10; ++i) {
    objects.push_back(
        UncertainPoint::MakeGaussian(i, Point(0, 0), 10.0));
  }
  const auto dist = RangeCount(objects, box);
  EXPECT_NEAR(dist.expected, 5.0, 0.1);
  EXPECT_NEAR(dist.variance, 2.5, 0.1);
  EXPECT_NEAR(dist.ProbAtLeast(0), 1.0, 1e-12);
  EXPECT_NEAR(dist.ProbAtLeast(1), 1.0 - std::pow(0.5, 10), 0.02);
  EXPECT_NEAR(dist.ProbAtLeast(10), std::pow(0.5, 10), 0.02);
  EXPECT_DOUBLE_EQ(dist.ProbAtLeast(11), 0.0);
  // Tail is non-increasing.
  for (size_t m = 1; m < dist.tail.size(); ++m) {
    EXPECT_LE(dist.tail[m], dist.tail[m - 1] + 1e-12);
  }
}

TEST(RangeCountTest, CertainObjectsCountExactly) {
  std::vector<UncertainPoint> objects;
  for (int i = 0; i < 5; ++i) {
    objects.push_back(
        UncertainPoint::MakeGaussian(i, Point(50, 50), 0.5));
  }
  const auto dist = RangeCount(objects, BBox(0, 0, 100, 100));
  EXPECT_NEAR(dist.expected, 5.0, 1e-6);
  EXPECT_NEAR(dist.ProbAtLeast(5), 1.0, 1e-6);
}

TEST(PnnTest, ProbabilitiesReflectDistanceAndUncertainty) {
  Rng rng(42);
  std::vector<UncertainPoint> objects;
  objects.push_back(UncertainPoint::MakeGaussian(0, Point(10, 0), 1.0));
  objects.push_back(UncertainPoint::MakeGaussian(1, Point(20, 0), 1.0));
  objects.push_back(UncertainPoint::MakeGaussian(2, Point(1000, 0), 1.0));
  const auto pnn =
      ProbabilisticNearestNeighbor(objects, Point(0, 0), 20000, &rng);
  ASSERT_FALSE(pnn.empty());
  EXPECT_EQ(pnn.front().first, 0u);
  EXPECT_GT(pnn.front().second, 0.95);
  double total = 0.0;
  for (const auto& [id, p] : pnn) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // A highly uncertain object steals probability mass it would never get
  // under certainty (with sigma=1 its NN probability was ~0; with sigma=30
  // a Monte Carlo estimate puts it near 0.05).
  double p1_before = 0.0;
  for (const auto& [id, p] : pnn) {
    if (id == 1) p1_before = p;
  }
  objects[1] = UncertainPoint::MakeGaussian(1, Point(20, 0), 30.0);
  const auto pnn2 =
      ProbabilisticNearestNeighbor(objects, Point(0, 0), 20000, &rng);
  double p1 = 0.0;
  for (const auto& [id, p] : pnn2) {
    if (id == 1) p1 = p;
  }
  EXPECT_GT(p1, p1_before + 0.02);
}

// Parameterised tau sweep: higher thresholds can only shrink the result.
class TauSweep : public ::testing::TestWithParam<double> {};

TEST_P(TauSweep, ResultMonotoneInTau) {
  const auto objects = RandomObjects(200, 1500.0, 25.0, 10);
  const BBox box(300, 300, 800, 800);
  const double tau = GetParam();
  const auto at_tau = ProbabilisticRangeQuery(objects, box, tau);
  const auto at_higher = ProbabilisticRangeQuery(objects, box, tau + 0.2);
  EXPECT_GE(at_tau.size(), at_higher.size());
  for (ObjectId id : at_higher) {
    EXPECT_NE(std::find(at_tau.begin(), at_tau.end(), id), at_tau.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, TauSweep,
                         ::testing::Values(0.05, 0.25, 0.5, 0.75));

}  // namespace
}  // namespace query
}  // namespace sidq
