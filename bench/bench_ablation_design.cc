// A1 -- ablations of the design choices DESIGN.md calls out: how sensitive
// are the headline results to the knobs each algorithm exposes?
//   (a) HMM map matching: candidate count and transition scale beta.
//   (b) Kalman smoothing: process-noise setting vs measurement noise.
//   (c) Stream anomaly detection: grid cell size (the E14 lesson).
//   (d) Trajectory calibration: anchor cell size vs corpus density.
//   (e) Similarity search: Sakoe-Chiba band width vs accuracy and cost.

#include <chrono>
#include <cstdio>
#include <string>

#include "analytics/stream_anomaly.h"
#include "bench/bench_util.h"
#include "core/random.h"
#include "query/similarity.h"
#include "refine/hmm_map_matcher.h"
#include "refine/kalman.h"
#include "sim/noise.h"
#include "sim/trajectory_sim.h"
#include "uncertainty/calibration.h"

namespace sidq {
namespace {

int Run() {
  bench::Banner("A1", "design-choice ablations",
                "each knob has a broad sweet spot; the defaults sit in it");

  Rng rng(21);
  sim::RoadNetwork net =
      sim::MakeGridRoadNetwork(10, 10, 160.0, 6.0, 0.0, &rng);
  sim::TrajectorySimulator::Options sopts;
  sopts.mean_speed_mps = 12.0;
  sim::TrajectorySimulator simulator(sopts, &rng);
  std::vector<Trajectory> truths;
  for (int i = 0; i < 6; ++i) {
    truths.push_back(simulator.RandomOnNetwork(net, 18, i).value());
  }
  std::vector<Trajectory> noisy;
  for (const auto& tr : truths) {
    noisy.push_back(sim::AddGpsNoise(tr, 15.0, &rng));
  }

  std::printf("-- (a) HMM map matching: max candidates x beta --\n");
  bench::Table table({"max candidates", "beta (m)", "rmse (m)"});
  for (size_t cands : {2, 4, 8}) {
    for (double beta : {5.0, 30.0, 120.0}) {
      refine::HmmMapMatcher::Options mopts;
      mopts.max_candidates = cands;
      mopts.beta_m = beta;
      refine::HmmMapMatcher matcher(&net, mopts);
      double err = 0.0;
      for (size_t i = 0; i < truths.size(); ++i) {
        err += RmseBetween(truths[i], matcher.Match(noisy[i])->matched)
                   .value();
      }
      table.AddRow({std::to_string(cands), bench::F1(beta),
                    bench::F2(err / truths.size())});
    }
  }
  table.Print();

  std::printf("-- (b) Kalman smoothing: process noise vs rmse (meas sigma "
              "15 m) --\n");
  bench::Table table2({"process noise q", "rmse (m)"});
  for (double q : {0.01, 0.1, 0.5, 2.0, 10.0, 100.0}) {
    refine::KalmanFilter2D::Options kopts;
    kopts.process_noise = q;
    const refine::KalmanFilter2D kf(kopts);
    double err = 0.0;
    for (size_t i = 0; i < truths.size(); ++i) {
      err += RmseBetween(truths[i], kf.Smooth(noisy[i]).value()).value();
    }
    table2.AddRow({bench::F2(q), bench::F2(err / truths.size())});
  }
  table2.Print();

  std::printf("-- (c) anomaly detection: cell size vs detection/false "
              "alarms --\n");
  bench::Table table3({"cell (m)", "intruders detected /10",
                       "false alarms /10"});
  {
    const sim::Fleet fleet = sim::MakeFleet(10, 10, 200.0, 50, 20, &rng);
    std::vector<Trajectory> train(fleet.trajectories.begin(),
                                  fleet.trajectories.end() - 10);
    std::vector<Trajectory> held(fleet.trajectories.end() - 10,
                                 fleet.trajectories.end());
    std::vector<Trajectory> intruders;
    for (int i = 0; i < 10; ++i) {
      intruders.push_back(simulator.RandomWaypoint(
          geometry::BBox(0, 0, 1800, 1800), 120, 500 + i));
    }
    for (double cell : {50.0, 100.0, 250.0, 500.0}) {
      analytics::StreamAnomalyDetector::Options dopts;
      dopts.cell_m = cell;
      dopts.min_support = 1;
      dopts.anomaly_threshold = 0.4;
      analytics::StreamAnomalyDetector detector(dopts);
      detector.Train(train);
      size_t det = 0, fa = 0;
      for (const auto& tr : intruders) {
        det += detector.IsAnomalous(tr) ? 1 : 0;
      }
      for (const auto& tr : held) fa += detector.IsAnomalous(tr) ? 1 : 0;
      table3.AddRow({bench::FInt(cell), std::to_string(det),
                     std::to_string(fa)});
    }
  }
  table3.Print();

  std::printf("-- (d) calibration: anchor cell size vs rmse --\n");
  bench::Table table4({"anchor cell (m)", "anchors", "rmse (m)"});
  for (double cell : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    uncertainty::TrajectoryCalibrator::Options copts;
    copts.anchor_cell_m = cell;
    copts.min_points_per_anchor = 3;
    copts.snap_radius_m = 60.0;
    uncertainty::TrajectoryCalibrator calibrator(copts);
    calibrator.BuildAnchors(truths);
    double err = 0.0;
    for (size_t i = 0; i < truths.size(); ++i) {
      err += RmseBetween(truths[i],
                         calibrator.Calibrate(noisy[i]).value())
                 .value();
    }
    table4.AddRow({bench::FInt(cell),
                   std::to_string(calibrator.num_anchors()),
                   bench::F2(err / truths.size())});
  }
  table4.Print();

  std::printf("-- (f) routing: Dijkstra vs A* expansions (same paths) --\n");
  {
    sim::RoadNetwork big =
        sim::MakeGridRoadNetwork(25, 25, 150.0, 5.0, 0.0, &rng);
    size_t dj = 0, as = 0;
    for (int t = 0; t < 40; ++t) {
      const NodeId a = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(big.num_nodes()) - 1));
      const NodeId b = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(big.num_nodes()) - 1));
      if (big.ShortestPath(a, b).ok()) dj += big.last_nodes_expanded;
      if (big.ShortestPathAStar(a, b).ok()) as += big.last_nodes_expanded;
    }
    std::printf("dijkstra expanded %zu nodes, A* expanded %zu (%.1fx "
                "fewer), identical path lengths\n\n",
                dj, as, static_cast<double>(dj) / as);
  }

  // Wall-clock times go to stderr, one line per band, so stdout stays
  // byte-comparable between builds.
  std::printf("-- (e) similarity search: DTW band vs accuracy "
              "(time per band on stderr) --\n");
  bench::Table table5({"band", "rank-1 hits /20"});
  {
    const sim::Fleet fleet = sim::MakeFleet(20, 20, 300.0, 20, 10, &rng);
    std::vector<Trajectory> collection;
    for (const auto& tr : fleet.trajectories) {
      collection.push_back(sim::AddGpsNoise(tr, 8.0, &rng));
    }
    for (int band : {2, 8, 32, -1}) {
      query::TrajectorySimilaritySearch::Options qopts;
      qopts.dtw_band = band;
      query::TrajectorySimilaritySearch search(qopts);
      search.Build(&collection);
      size_t hits = 0;
      const auto start = std::chrono::steady_clock::now();
      for (size_t q = 0; q < fleet.trajectories.size(); ++q) {
        const Trajectory queried =
            sim::AddGpsNoise(fleet.trajectories[q], 20.0, &rng);
        const auto knn = search.Knn(queried, 1);
        hits += knn.ok() && !knn->empty() && knn->front() == q ? 1 : 0;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      const std::string band_name = band < 0 ? "none" : std::to_string(band);
      table5.AddRow({band_name, std::to_string(hits)});
      std::fprintf(stderr, "(e) dtw band %s: %.1f ms\n", band_name.c_str(),
                   ms);
    }
  }
  table5.Print();
  return 0;
}

}  // namespace
}  // namespace sidq

int main() { return sidq::Run(); }
