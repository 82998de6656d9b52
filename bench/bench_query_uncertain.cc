// E13 -- Queries over low-quality SID (Section 2.3.1): probabilistic range
// and kNN pruning effectiveness, bead vs Markov-grid trajectory queries,
// safe-region message savings, and skew-aware partitioning.

#include <chrono>

#include "bench/bench_util.h"
#include "core/random.h"
#include "query/continuous.h"
#include "query/continuous_knn.h"
#include "query/partition.h"
#include "query/uncertain_point.h"
#include "query/uncertain_trajectory.h"
#include "sim/noise.h"
#include "sim/trajectory_sim.h"

namespace sidq {
namespace {

int Run() {
  bench::Banner("E13", "queries over low-quality SID",
                "probability bounds prune most exact evaluations; safe "
                "regions slash communication; adaptive partitioning fixes "
                "skew");

  Rng rng(13);

  std::printf("-- probabilistic range query: pruning vs tau (5000 uncertain "
              "objects) --\n");
  std::vector<query::UncertainPoint> objects;
  for (int i = 0; i < 5000; ++i) {
    objects.push_back(query::UncertainPoint::MakeGaussian(
        i, geometry::Point(rng.Uniform(0, 10000), rng.Uniform(0, 10000)),
        rng.Uniform(5.0, 40.0)));
  }
  const geometry::BBox box(2000, 2000, 4500, 4500);
  bench::Table table({"tau", "results", "pruned out", "cheap accepts",
                      "exact evals", "pruned frac"});
  for (double tau : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    query::PruningStats stats;
    const auto results =
        query::ProbabilisticRangeQuery(objects, box, tau, &stats);
    table.AddRow({bench::F2(tau), std::to_string(results.size()),
                  std::to_string(stats.pruned_out),
                  std::to_string(stats.accepted_cheap),
                  std::to_string(stats.evaluated_exact),
                  bench::F3(stats.PrunedFraction())});
  }
  table.Print();

  std::printf("-- expected-distance kNN: pruning vs k --\n");
  bench::Table table2({"k", "exact evals", "pruned frac"});
  for (size_t k : {1, 10, 50, 200}) {
    query::PruningStats stats;
    query::ExpectedDistanceKnn(objects, geometry::Point(5000, 5000), k,
                               &stats);
    table2.AddRow({std::to_string(k), std::to_string(stats.evaluated_exact),
                   bench::F3(stats.PrunedFraction())});
  }
  table2.Print();

  // The per-request query batch of perfbench's warm_query workload: one
  // batched range call over 32 boxes of 400 m, then kNN (k = 10) for 4
  // probes, over ~28k Gaussian points (GPS sigma 8-16 m).
  std::printf("-- warm-query-shaped batch: range + kNN time per call --\n");
  {
    constexpr int kPoints = 28000;
    constexpr int kReps = 20;
    Rng wrng(1313);  // own stream: later tables keep their inputs
    std::vector<query::UncertainPoint> pts;
    for (int i = 0; i < kPoints; ++i) {
      pts.push_back(query::UncertainPoint::MakeGaussian(
          i, geometry::Point(wrng.Uniform(0, 12000), wrng.Uniform(0, 12000)),
          wrng.Uniform(8.0, 16.0)));
    }
    std::vector<geometry::BBox> boxes;
    for (int i = 0; i < 32; ++i) {
      const double x = wrng.Uniform(200, 11800), y = wrng.Uniform(200, 11800);
      boxes.emplace_back(x - 200, y - 200, x + 200, y + 200);
    }
    std::vector<geometry::Point> probes;
    for (int i = 0; i < 4; ++i) {
      probes.emplace_back(wrng.Uniform(0, 12000), wrng.Uniform(0, 12000));
    }
    size_t results = 0;
    double range_ms = 0.0, knn_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      for (const auto& ids :
           query::ProbabilisticRangeQueryMany(pts, boxes, 0.5)) {
        results += ids.size();
      }
      auto t1 = std::chrono::steady_clock::now();
      range_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      for (const geometry::Point& q : probes) {
        results += query::ExpectedDistanceKnn(pts, q, 10).size();
      }
      knn_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t1)
                    .count();
    }
    bench::Table tablew({"points", "boxes", "kNN probes", "results/call",
                         "range ms/call", "kNN ms/call"});
    tablew.AddRow({std::to_string(kPoints), std::to_string(boxes.size()),
                   std::to_string(probes.size()),
                   std::to_string(results / kReps), bench::F3(range_ms / kReps),
                   bench::F3(knn_ms / kReps)});
    tablew.Print();
  }

  std::printf("-- probabilistic range aggregates (Poisson-binomial "
              "count) --\n");
  {
    bench::Table tablea({"query box side (m)", "expected count",
                         "std dev", "P(count >= E+10)"});
    for (double side : {1000.0, 2500.0, 5000.0}) {
      const geometry::BBox b(2000, 2000, 2000 + side, 2000 + side);
      const auto dist = query::RangeCount(objects, b);
      tablea.AddRow({bench::FInt(side), bench::F1(dist.expected),
                     bench::F2(std::sqrt(dist.variance)),
                     bench::F3(dist.ProbAtLeast(
                         static_cast<size_t>(dist.expected) + 10))});
    }
    tablea.Print();
  }

  std::printf("-- probabilistic nearest neighbour (Monte Carlo) --\n");
  {
    std::vector<query::UncertainPoint> small(objects.begin(),
                                             objects.begin() + 200);
    const auto pnn = query::ProbabilisticNearestNeighbor(
        small, geometry::Point(5000, 5000), 20000, &rng);
    std::printf("candidates with nonzero NN probability: %zu; top-3: ",
                pnn.size());
    for (size_t i = 0; i < std::min<size_t>(3, pnn.size()); ++i) {
      std::printf("%sobj%llu=%.2f", i ? ", " : "",
                  static_cast<unsigned long long>(pnn[i].first),
                  pnn[i].second);
    }
    std::printf("\n\n");
  }

  std::printf("-- uncertain trajectory range queries (bead model) vs "
              "sampling interval --\n");
  const sim::Fleet fleet = sim::MakeFleet(10, 10, 170.0, 20, 24, &rng);
  bench::Table table3({"interval (s)", "possible", "definite"});
  const geometry::BBox qbox(300, 300, 1000, 1000);
  for (Timestamp interval : {2, 10, 30}) {
    std::vector<Trajectory> sparse;
    for (const auto& tr : fleet.trajectories) {
      sparse.push_back(sim::Resample(tr, interval * 1000));
    }
    const auto result = query::UncertainTrajectoryRange(
        sparse, 20.0, qbox, 30'000, 120'000);
    table3.AddRow({std::to_string(interval),
                   std::to_string(result.possible.size()),
                   std::to_string(result.definite.size())});
  }
  table3.Print();
  std::printf("(sparser sampling widens the beads: 'possible' grows, "
              "'definite' shrinks)\n\n");

  std::printf("-- Markov-grid probability vs bead containment --\n");
  {
    Trajectory tr(1);
    tr.AppendUnordered(TrajectoryPoint(0, geometry::Point(0, 0)));
    tr.AppendUnordered(TrajectoryPoint(60'000, geometry::Point(600, 0)));
    query::MarkovGridModel model(&tr);
    query::BeadModel beads(&tr, 15.0);
    bench::Table table4({"box around", "markov P(inside)", "bead possible"});
    for (double cx : {300.0, 300.0 + 250.0, 300.0 + 500.0}) {
      const geometry::BBox b(cx - 100, -100, cx + 100, 100);
      table4.AddRow({bench::FInt(cx),
                     bench::F3(model.ProbInBox(b, 30'000)),
                     beads.PossiblyInside(b, 29'000, 31'000) ? "yes" : "no"});
    }
    table4.Print();
  }

  std::printf("-- continuous monitoring: safe regions vs naive --\n");
  {
    sim::TrajectorySimulator simulator({}, &rng);
    query::SafeRegionMonitor monitor(geometry::BBox(2000, 2000, 6000, 6000));
    size_t updates = 0;
    for (int obj = 0; obj < 50; ++obj) {
      const Trajectory tr = simulator.RandomWaypoint(
          geometry::BBox(0, 0, 8000, 8000), 500, obj);
      for (const auto& pt : tr.points()) {
        monitor.ProcessUpdate(obj, pt.p);
        ++updates;
      }
    }
    std::printf("naive messages: %zu, safe-region messages: %zu "
                "(%.1f%% saved)\n\n",
                updates, monitor.messages_sent(),
                100.0 * monitor.MessageSavings());
  }

  std::printf("-- continuous kNN monitoring: safe radii vs naive --\n");
  {
    sim::TrajectorySimulator simulator({}, &rng);
    std::vector<Trajectory> trs;
    for (int i = 0; i < 40; ++i) {
      trs.push_back(simulator.RandomWaypoint(
          geometry::BBox(0, 0, 4000, 4000), 400, i));
    }
    bench::Table tablek({"k", "messages", "savings", "result accuracy"});
    for (size_t k : {1, 5, 20}) {
      query::ContinuousKnnMonitor monitor(geometry::Point(2000, 2000), k);
      size_t correct = 0, checked = 0;
      for (size_t step = 0; step < 400; ++step) {
        for (const auto& tr : trs) {
          monitor.ProcessUpdate(tr.object_id(), tr[step].p);
        }
        std::vector<std::pair<double, ObjectId>> truth;
        for (const auto& tr : trs) {
          truth.emplace_back(
              geometry::Distance(tr[step].p, geometry::Point(2000, 2000)),
              tr.object_id());
        }
        std::sort(truth.begin(), truth.end());
        const auto result = monitor.Result();
        for (size_t i = 0; i < k; ++i) {
          ++checked;
          for (ObjectId id : result) {
            if (id == truth[i].second) {
              ++correct;
              break;
            }
          }
        }
      }
      tablek.AddRow({std::to_string(k),
                     std::to_string(monitor.messages_sent()),
                     bench::F3(monitor.MessageSavings()),
                     bench::F3(static_cast<double>(correct) / checked)});
    }
    tablek.Print();
  }

  std::printf("-- partitioning skewed SID --\n");
  {
    std::vector<geometry::Point> pts;
    for (int i = 0; i < 40000; ++i) {
      if (rng.Bernoulli(0.75)) {
        pts.emplace_back(rng.Gaussian(1000, 150), rng.Gaussian(1000, 150));
      } else {
        pts.emplace_back(rng.Uniform(0, 20000), rng.Uniform(0, 20000));
      }
    }
    const auto uniform = query::UniformGridPartition(pts, 16, 16);
    const auto adaptive = query::AdaptiveQuadPartition(pts, 500);
    const auto us = query::ComputeStats(uniform);
    const auto as = query::ComputeStats(adaptive);
    bench::Table table5({"scheme", "partitions", "max load", "imbalance"});
    table5.AddRow({"uniform 16x16", std::to_string(us.num_partitions),
                   std::to_string(us.max_load), bench::F1(us.imbalance)});
    table5.AddRow({"adaptive quad", std::to_string(as.num_partitions),
                   std::to_string(as.max_load), bench::F1(as.imbalance)});
    table5.Print();
  }
  return 0;
}

}  // namespace
}  // namespace sidq

int main() { return sidq::Run(); }
