#include <sstream>

#include <gtest/gtest.h>

#include "analytics/burst.h"
#include "analytics/next_location.h"
#include "core/io.h"
#include "core/random.h"
#include "core/trajectory.h"
#include "sim/sensor_field.h"
#include "sim/trajectory_sim.h"

namespace sidq {
namespace {

using geometry::BBox;
using geometry::Point;

// ------------------------------------------------------------- SplitByGap

TEST(SplitByGapTest, SplitsAtLargeGaps) {
  Trajectory tr(7);
  for (int i = 0; i < 10; ++i) {
    tr.AppendUnordered(TrajectoryPoint(i * 1000, Point(i, 0)));
  }
  for (int i = 0; i < 5; ++i) {
    tr.AppendUnordered(
        TrajectoryPoint(100'000 + i * 1000, Point(100 + i, 0)));
  }
  const auto pieces = SplitByGap(tr, 10'000);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].size(), 10u);
  EXPECT_EQ(pieces[1].size(), 5u);
  EXPECT_EQ(pieces[0].object_id(), 7u);
}

TEST(SplitByGapTest, DropsShortPieces) {
  Trajectory tr(1);
  tr.AppendUnordered(TrajectoryPoint(0, Point(0, 0)));            // lone point
  tr.AppendUnordered(TrajectoryPoint(100'000, Point(1, 0)));
  tr.AppendUnordered(TrajectoryPoint(101'000, Point(2, 0)));
  const auto pieces = SplitByGap(tr, 10'000, 2);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].size(), 2u);
}

TEST(SplitByGapTest, NoGapsSinglePiece) {
  Trajectory tr(1);
  for (int i = 0; i < 5; ++i) {
    tr.AppendUnordered(TrajectoryPoint(i * 1000, Point(i, 0)));
  }
  const auto pieces = SplitByGap(tr, 10'000);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].size(), 5u);
  EXPECT_TRUE(SplitByGap(Trajectory(1), 1000).empty());
}

// -------------------------------------------------------------------- IO

TEST(IoTest, TrajectoryCsvRoundTrip) {
  Rng rng(1);
  sim::TrajectorySimulator simulator({}, &rng);
  std::vector<Trajectory> original;
  for (int i = 0; i < 3; ++i) {
    Trajectory tr = simulator.RandomWaypoint(BBox(0, 0, 500, 500), 20, i);
    original.push_back(std::move(tr));
  }
  std::stringstream ss;
  ASSERT_TRUE(WriteTrajectoriesCsv(original, ss).ok());
  const auto loaded = ReadTrajectoriesCsv(ss);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t k = 0; k < original.size(); ++k) {
    ASSERT_EQ((*loaded)[k].size(), original[k].size());
    EXPECT_EQ((*loaded)[k].object_id(), original[k].object_id());
    for (size_t i = 0; i < original[k].size(); ++i) {
      EXPECT_EQ((*loaded)[k][i].t, original[k][i].t);
      EXPECT_NEAR((*loaded)[k][i].p.x, original[k][i].p.x, 1e-6);
      EXPECT_NEAR((*loaded)[k][i].p.y, original[k][i].p.y, 1e-6);
    }
  }
}

TEST(IoTest, TrajectoryCsvRejectsGarbage) {
  {
    std::stringstream ss("");
    EXPECT_FALSE(ReadTrajectoriesCsv(ss).ok());
  }
  {
    std::stringstream ss("header\n1,2\n");
    EXPECT_FALSE(ReadTrajectoriesCsv(ss).ok());
  }
  {
    std::stringstream ss("header\n1,notatime,3,4\n");
    EXPECT_FALSE(ReadTrajectoriesCsv(ss).ok());
  }
}

TEST(IoTest, StidCsvRoundTrip) {
  Rng rng(2);
  const BBox bounds(0, 0, 1000, 1000);
  const auto field =
      sim::ScalarField::MakeRandom(bounds, 2, 5.0, 10.0, 200, 400, 3600, &rng);
  const StDataset original = sim::SampleField(
      field, sim::DeploySensors(bounds, 5, &rng), 0, 60'000, 10, "pm25");
  std::stringstream ss;
  ASSERT_TRUE(WriteStidCsv(original, ss).ok());
  const auto loaded = ReadStidCsv(ss, "pm25");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->field_name(), "pm25");
  ASSERT_EQ(loaded->num_sensors(), original.num_sensors());
  EXPECT_EQ(loaded->TotalRecords(), original.TotalRecords());
  for (size_t s = 0; s < original.num_sensors(); ++s) {
    const auto found = loaded->FindSeries(original.series()[s].sensor());
    ASSERT_TRUE(found.ok());
    for (size_t i = 0; i < original.series()[s].size(); ++i) {
      EXPECT_NEAR((**found)[i].value, original.series()[s][i].value, 1e-6);
    }
  }
}

TEST(IoTest, FileRoundTrip) {
  Trajectory tr(42);
  tr.AppendUnordered(TrajectoryPoint(0, Point(1.5, -2.5), 3.0));
  tr.AppendUnordered(TrajectoryPoint(1000, Point(2.5, -3.5)));
  const std::string path = "/tmp/sidq_io_test.csv";
  ASSERT_TRUE(WriteTrajectoriesCsvFile({tr}, path).ok());
  const auto loaded = ReadTrajectoriesCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_DOUBLE_EQ((*loaded)[0][0].accuracy, 3.0);
  EXPECT_FALSE(ReadTrajectoriesCsvFile("/nonexistent/nope.csv").ok());
  EXPECT_EQ(ReadTrajectoriesCsvFile("/nonexistent/nope.csv").status().code(),
            StatusCode::kNotFound);

  StDataset stid("pm25");
  StSeries series(7, Point(10.0, 20.0));
  ASSERT_TRUE(series.Append(0, 12.5, 0.5).ok());
  ASSERT_TRUE(series.Append(60'000, 13.25, -1.0).ok());
  stid.AddSeries(std::move(series));
  const std::string stid_path = ::testing::TempDir() + "/sidq_io_stid.csv";
  ASSERT_TRUE(WriteStidCsvFile(stid, stid_path).ok());
  const auto stid_loaded = ReadStidCsvFile(stid_path, "pm25");
  ASSERT_TRUE(stid_loaded.ok());
  EXPECT_EQ(stid_loaded->field_name(), "pm25");
  ASSERT_EQ(stid_loaded->num_sensors(), 1u);
  const StSeries& got = stid_loaded->series()[0];
  EXPECT_EQ(got.sensor(), 7u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].t, 60'000);
  EXPECT_DOUBLE_EQ(got[0].value, 12.5);
  EXPECT_DOUBLE_EQ(got[0].stddev, 0.5);
  EXPECT_DOUBLE_EQ(got[1].value, 13.25);
  EXPECT_DOUBLE_EQ(got[1].loc.y, 20.0);
  EXPECT_EQ(ReadStidCsvFile("/nonexistent/nope.csv", "pm25").status().code(),
            StatusCode::kNotFound);
}

// ----------------------------------------------------------------- Burst

TEST(BurstTest, DetectsInjectedBurst) {
  analytics::BurstDetector::Options opts;
  opts.cell_m = 100.0;
  opts.window_ms = 10'000;
  opts.min_count = 5;
  opts.burst_factor = 3.0;
  opts.warmup_windows = 3;
  analytics::BurstDetector detector(opts);
  Rng rng(3);
  std::vector<analytics::BurstDetector::BurstRegion> fired;
  // Steady background: ~2 events per window spread over a wide area.
  Timestamp t = 0;
  for (int w = 0; w < 20; ++w) {
    const bool burst_window = w == 15;
    for (int e = 0; e < 2; ++e) {
      auto f = detector.Feed(Point(rng.Uniform(0, 1000),
                                   rng.Uniform(0, 1000)),
                             t + e * 1000);
      fired.insert(fired.end(), f.begin(), f.end());
    }
    if (burst_window) {
      // 30 events in one cell: an incident.
      for (int e = 0; e < 30; ++e) {
        auto f = detector.Feed(Point(455.0 + (e % 3), 455.0), t + 5000);
        fired.insert(fired.end(), f.begin(), f.end());
      }
    }
    t += 10'000;
  }
  // Flush the final window.
  auto f = detector.Feed(Point(0, 0), t + 20'000);
  fired.insert(fired.end(), f.begin(), f.end());
  ASSERT_GE(fired.size(), 1u);
  bool found = false;
  for (const auto& region : fired) {
    found = found || region.bounds.Contains(Point(455, 455));
  }
  EXPECT_TRUE(found);
  // The burst region is localized.
  for (const auto& region : fired) {
    EXPECT_LE(region.cells, 4u);
  }
}

TEST(BurstTest, SteadyTrafficNeverFires) {
  analytics::BurstDetector detector;
  Rng rng(4);
  size_t fired = 0;
  Timestamp t = 0;
  for (int i = 0; i < 3000; ++i) {
    fired += detector
                 .Feed(Point(rng.Uniform(0, 2000), rng.Uniform(0, 2000)),
                       t)
                 .size();
    t += 500;
  }
  EXPECT_EQ(fired, 0u);
  EXPECT_GT(detector.windows_processed(), 10u);
}

TEST(BurstTest, ScanOverStidRecords) {
  // Background readings plus a burst of co-located records.
  std::vector<StRecord> records;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    records.emplace_back(i, rng.UniformInt(0, 200'000),
                         Point(rng.Uniform(0, 3000), rng.Uniform(0, 3000)),
                         1.0);
  }
  for (int i = 0; i < 40; ++i) {
    records.emplace_back(1000 + i, 150'000 + i * 10,
                         Point(1500.0, 1500.0), 1.0);
  }
  analytics::BurstDetector::Options opts;
  opts.window_ms = 30'000;
  opts.min_count = 10;
  analytics::BurstDetector detector(opts);
  const auto regions = detector.Scan(records);
  ASSERT_GE(regions.size(), 1u);
  EXPECT_TRUE(regions.front().bounds.Contains(Point(1500, 1500)));
}

// ----------------------------------------------------- Incremental learn

TEST(IncrementalLearningTest, ObserveImprovesModel) {
  Rng rng(6);
  const sim::Fleet fleet = sim::MakeFleet(8, 8, 250.0, 40, 14, &rng);
  std::vector<Trajectory> initial(fleet.trajectories.begin(),
                                  fleet.trajectories.begin() + 5);
  std::vector<Trajectory> stream(fleet.trajectories.begin() + 5,
                                 fleet.trajectories.end() - 10);
  std::vector<Trajectory> held(fleet.trajectories.end() - 10,
                               fleet.trajectories.end());
  analytics::NextCellPredictor predictor;
  predictor.Train(initial);
  const double before = predictor.Evaluate(held);
  for (const auto& tr : stream) predictor.Observe(tr);
  const double after = predictor.Evaluate(held);
  EXPECT_GT(after, before);

  // Observe must be equivalent to batch training on the union.
  analytics::NextCellPredictor batch;
  std::vector<Trajectory> all = initial;
  all.insert(all.end(), stream.begin(), stream.end());
  batch.Train(all);
  EXPECT_DOUBLE_EQ(batch.Evaluate(held), after);
}

}  // namespace
}  // namespace sidq
