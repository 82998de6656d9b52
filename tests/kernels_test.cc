// Property tests for the kernel layer: every vectorized primitive must be
// BIT-IDENTICAL (not merely close) to its scalar reference over randomized
// trajectories including empty, single-point, and degenerate inputs, and
// BoxGapScan must stream a PackedRTree's items in brute-force (gap, id)
// order.

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/clock.h"
#include "core/exec_context.h"
#include "core/random.h"
#include "kernels/distance.h"
#include "kernels/packed_rtree.h"
#include "kernels/scalar_ref.h"
#include "kernels/soa.h"
#include "query/similarity.h"

namespace sidq {
namespace kernels {
namespace {

using geometry::BBox;
using geometry::Point;

// Random trajectory with degenerate features: duplicate points (zero-length
// segments), repeated timestamps, collinear runs.
Trajectory RandomTrajectory(Rng* rng, size_t n, ObjectId id = 1) {
  Trajectory tr(id);
  Timestamp t = 0;
  Point p(rng->Uniform(-500.0, 500.0), rng->Uniform(-500.0, 500.0));
  for (size_t i = 0; i < n; ++i) {
    const double roll = rng->Uniform(0.0, 1.0);
    if (roll < 0.15 && i > 0) {
      // duplicate the previous point (zero-length segment)
    } else if (roll < 0.25 && i > 0) {
      p += Point(rng->Uniform(0.0, 5.0), 0.0);  // axis-aligned step
    } else {
      p += Point(rng->Uniform(-20.0, 20.0), rng->Uniform(-20.0, 20.0));
    }
    tr.AppendUnordered(TrajectoryPoint(t, p));
    t += rng->Bernoulli(0.1) ? 0 : rng->UniformInt(100, 2000);
  }
  return tr;
}

std::vector<size_t> InterestingSizes() { return {0, 1, 2, 3, 7, 33, 64}; }

// ------------------------------------------------------- measure identity

// The Bounded forms with a live ExecContext run the deadline-checked row
// kernels; without one, Frechet and unbanded DTW take the anti-diagonal
// wavefronts. Both paths must match the oracle.

TEST(KernelEquivalenceTest, DtwMatchesScalarBitForBit) {
  Rng rng(7);
  const ExecContext exec;
  for (size_t n : InterestingSizes()) {
    for (size_t m : InterestingSizes()) {
      const Trajectory a = RandomTrajectory(&rng, n, 1);
      const Trajectory b = RandomTrajectory(&rng, m, 2);
      for (int band : {-1, 0, 1, 4, 32}) {
        const double want = scalar::DtwDistance(a, b, band);
        EXPECT_EQ(query::DtwDistance(a, b, band), want)
            << "n=" << n << " m=" << m << " band=" << band;
        const StatusOr<double> bounded =
            query::DtwDistanceBounded(a, b, band, &exec);
        ASSERT_TRUE(bounded.ok()) << bounded.status();
        EXPECT_EQ(*bounded, want)
            << "bounded n=" << n << " m=" << m << " band=" << band;
      }
    }
  }
}

TEST(KernelEquivalenceTest, DtwWavefrontMatchesBoundedRowPath) {
  // A live context (clock + a deadline that never comes) sends
  // DtwDistanceBounded down the row-kernel path; DtwDistance without a
  // band takes the dispatched wavefront. Same bits on every input,
  // including NaN coordinates and squared distances that overflow.
  Rng rng(19);
  const VirtualClock clock;
  const ExecContext exec = ExecContext::After(&clock, int64_t{1} << 40);
  ASSERT_TRUE(exec.has_deadline());
  for (size_t n : {size_t{1}, size_t{9}, size_t{64}, size_t{355}}) {
    for (size_t m : {size_t{1}, size_t{8}, size_t{17}, size_t{355}}) {
      for (int shape = 0; shape < 3; ++shape) {
        Trajectory a = RandomTrajectory(&rng, n, 1);
        Trajectory b = RandomTrajectory(&rng, m, 2);
        if (shape == 1) {
          a.mutable_points()[n / 2].p.x =
              std::numeric_limits<double>::quiet_NaN();
        } else if (shape == 2) {
          for (Trajectory* tr : {&a, &b}) {
            for (TrajectoryPoint& pt : tr->mutable_points()) {
              pt.p = pt.p * 1e152;
            }
          }
        }
        const double wavefront = query::DtwDistance(a, b);
        const StatusOr<double> rows =
            query::DtwDistanceBounded(a, b, -1, &exec);
        ASSERT_TRUE(rows.ok()) << rows.status();
        EXPECT_EQ(0, std::memcmp(&wavefront, &*rows, sizeof(double)))
            << "shape=" << shape << " n=" << n << " m=" << m
            << " wavefront=" << wavefront << " rows=" << *rows;
      }
    }
  }
}

TEST(KernelEquivalenceTest, FrechetMatchesScalarBitForBit) {
  Rng rng(11);
  const ExecContext exec;
  for (size_t n : InterestingSizes()) {
    for (size_t m : InterestingSizes()) {
      const Trajectory a = RandomTrajectory(&rng, n, 1);
      const Trajectory b = RandomTrajectory(&rng, m, 2);
      const double want = scalar::FrechetDistance(a, b);
      EXPECT_EQ(query::DiscreteFrechetDistance(a, b), want)
          << "n=" << n << " m=" << m;
      const StatusOr<double> bounded =
          query::DiscreteFrechetDistanceBounded(a, b, &exec);
      ASSERT_TRUE(bounded.ok()) << bounded.status();
      EXPECT_EQ(*bounded, want) << "bounded n=" << n << " m=" << m;
    }
  }
}

TEST(KernelEquivalenceTest, EdrMatchesScalarBitForBit) {
  Rng rng(13);
  for (size_t n : InterestingSizes()) {
    for (size_t m : InterestingSizes()) {
      const Trajectory a = RandomTrajectory(&rng, n, 1);
      const Trajectory b = RandomTrajectory(&rng, m, 2);
      for (double eps : {0.0, 5.0, 50.0}) {
        EXPECT_EQ(query::EdrDistance(a, b, eps),
                  scalar::EdrDistance(a, b, eps))
            << "n=" << n << " m=" << m << " eps=" << eps;
      }
    }
  }
}

TEST(KernelEquivalenceTest, LcssMatchesScalarBitForBit) {
  Rng rng(17);
  for (size_t n : InterestingSizes()) {
    for (size_t m : InterestingSizes()) {
      const Trajectory a = RandomTrajectory(&rng, n, 1);
      const Trajectory b = RandomTrajectory(&rng, m, 2);
      EXPECT_EQ(query::LcssSimilarity(a, b, 25.0, 5000),
                scalar::LcssSimilarity(a, b, 25.0, 5000))
          << "n=" << n << " m=" << m;
    }
  }
}

// ----------------------------------------------------- primitive identity

TEST(KernelEquivalenceTest, ConsecutiveDistMatchesScalar) {
  Rng rng(23);
  for (size_t n : InterestingSizes()) {
    const Trajectory tr = RandomTrajectory(&rng, n);
    const TrajectoryView v = TrajectoryView::Of(tr);
    std::vector<double> got(n > 1 ? n - 1 : 0), want(n > 1 ? n - 1 : 0);
    ConsecutiveDist(v.x(), v.y(), n, got.data());
    scalar::ConsecutiveDist(tr, want.data());
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(KernelEquivalenceTest, PointToManyDistMatchesScalar) {
  Rng rng(29);
  for (size_t n : InterestingSizes()) {
    const Trajectory tr = RandomTrajectory(&rng, n);
    const TrajectoryView v = TrajectoryView::Of(tr);
    const Point p(rng.Uniform(-500.0, 500.0), rng.Uniform(-500.0, 500.0));
    std::vector<double> got(n), want(n);
    PointToManyDist(p.x, p.y, v.x(), v.y(), n, got.data());
    scalar::PointToManyDist(p, tr, want.data());
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

// ------------------------------------------------------------ SoA caching

TEST(TrajectoryViewTest, CachesUntilMutation) {
  Rng rng(37);
  Trajectory tr = RandomTrajectory(&rng, 16);
  const TrajectoryView v1 = TrajectoryView::Of(tr);
  const TrajectoryView v2 = TrajectoryView::Of(tr);
  EXPECT_EQ(v1.buffer().get(), v2.buffer().get()) << "same revision reuses";

  tr.AppendUnordered(TrajectoryPoint(999999, Point(1.0, 2.0)));
  const TrajectoryView v3 = TrajectoryView::Of(tr);
  EXPECT_NE(v3.buffer().get(), v1.buffer().get()) << "mutation invalidates";
  EXPECT_EQ(v3.size(), tr.size());
  // The old view still describes the pre-mutation snapshot.
  EXPECT_EQ(v1.size(), tr.size() - 1);

  // mutable_points() conservatively invalidates even without a write.
  const uint64_t rev = tr.revision();
  (void)tr.mutable_points();  // sidq: allow-ignored-status(only the revision bump matters here)
  EXPECT_GT(tr.revision(), rev);
  const TrajectoryView v4 = TrajectoryView::Of(tr);
  EXPECT_NE(v4.buffer().get(), v3.buffer().get());
}

TEST(TrajectoryViewTest, ColumnsMatchPoints) {
  Rng rng(41);
  const Trajectory tr = RandomTrajectory(&rng, 33);
  const TrajectoryView v = TrajectoryView::Of(tr);
  ASSERT_EQ(v.size(), tr.size());
  for (size_t i = 0; i < tr.size(); ++i) {
    EXPECT_EQ(v.x()[i], tr[i].p.x);
    EXPECT_EQ(v.y()[i], tr[i].p.y);
    EXPECT_EQ(v.t()[i], tr[i].t);
  }
}

// ------------------------------------------------------------ PackedRTree

std::vector<PackedRTree::Item> RandomBoxes(Rng* rng, size_t n) {
  std::vector<PackedRTree::Item> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->Uniform(0.0, 1000.0);
    const double y = rng->Uniform(0.0, 1000.0);
    const double w = rng->Uniform(0.0, 30.0);
    const double h = rng->Uniform(0.0, 30.0);
    items.push_back({i, BBox(x, y, x + w, y + h)});
  }
  return items;
}

// The brute-force (gap, id) sort of every item is the oracle for the whole
// tree: the sizes take BulkLoad from a lone leaf root and a full leaf up to
// four levels at fanout 16, and every fifth item repeats an earlier item's
// box under its own id, which pins the equal-gap id tie-break.
TEST(PackedRTreeTest, BoxGapScanStreamsSortedOrder) {
  Rng rng(61);
  for (size_t n : {1ul, 16ul, 17ul, 173ul, 5000ul}) {
    std::vector<PackedRTree::Item> items = RandomBoxes(&rng, n);
    for (size_t i = 4; i < n; i += 5) items[i].box = items[i / 2].box;
    PackedRTree packed;
    packed.BulkLoad(items);
    ASSERT_EQ(packed.size(), n);
    for (int q = 0; q < 10; ++q) {
      const double x = rng.Uniform(0.0, 1000.0);
      const double y = rng.Uniform(0.0, 1000.0);
      const BBox qbox(x, y, x + 40.0, y + 40.0);
      std::vector<std::pair<double, uint64_t>> expect;
      for (const auto& it : items) {
        expect.emplace_back(BoxGap(qbox, it.box), it.id);
      }
      std::sort(expect.begin(), expect.end());
      BoxGapScan scan(packed, qbox);
      uint64_t id = 0;
      double gap = 0.0;
      size_t i = 0;
      while (scan.Next(&id, &gap)) {
        ASSERT_LT(i, expect.size()) << "n=" << n;
        EXPECT_EQ(gap, expect[i].first) << "n=" << n << " i=" << i;
        EXPECT_EQ(id, expect[i].second) << "n=" << n << " i=" << i;
        ++i;
      }
      EXPECT_EQ(i, expect.size()) << "n=" << n << ": scan must be exhaustive";
    }
  }
}

TEST(PackedRTreeTest, EmptyTree) {
  PackedRTree packed;
  packed.BulkLoad({});
  EXPECT_TRUE(packed.empty());
  BoxGapScan scan(packed, BBox(0, 0, 1, 1));
  uint64_t id;
  double gap;
  EXPECT_FALSE(scan.Next(&id, &gap));
}

// -------------------------------------------- similarity search parity

TEST(SimilaritySearchKernelTest, KnnMatchesBruteForceDtwOrder) {
  Rng rng(67);
  std::vector<Trajectory> collection;
  for (size_t i = 0; i < 40; ++i) {
    collection.push_back(
        RandomTrajectory(&rng, 20 + (i % 13), static_cast<ObjectId>(i)));
  }
  collection.push_back(Trajectory(99));  // empty candidate
  const Trajectory q = RandomTrajectory(&rng, 25, 1000);

  query::TrajectorySimilaritySearch search;
  search.Build(&collection);
  query::TrajectorySimilaritySearch::SearchStats stats;
  const auto got = search.Knn(q, 5, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.candidates, collection.size());
  EXPECT_EQ(stats.pruned + stats.dtw_computed, stats.candidates);

  // Brute force: DTW against everything, same band.
  std::vector<std::pair<double, size_t>> all;
  for (size_t i = 0; i < collection.size(); ++i) {
    all.emplace_back(query::DtwDistance(q, collection[i], 32), i);
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(got.value().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got.value()[i], all[i].second) << "rank " << i;
  }
}

TEST(SimilaritySearchKernelTest, EmptyCollectionAndEmptyQuery) {
  std::vector<Trajectory> empty_collection;
  query::TrajectorySimilaritySearch search;
  search.Build(&empty_collection);
  Rng rng(71);
  const Trajectory q = RandomTrajectory(&rng, 5);
  const auto got = search.Knn(q, 3);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
  EXPECT_FALSE(search.Knn(Trajectory(1), 3).ok()) << "empty query rejected";
}

}  // namespace
}  // namespace kernels
}  // namespace sidq
