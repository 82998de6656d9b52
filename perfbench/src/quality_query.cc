#include "quality_query.h"

namespace perfbench {

namespace geometry = sidq::geometry;
namespace query = sidq::query;

QueryBatch MakeQueryBatch(sidq::Rng* rng, const geometry::BBox& bounds) {
  QueryBatch batch;
  const double half = kQueryBoxSideM / 2;
  for (size_t i = 0; i < kQueryBoxes; ++i) {
    const double x = rng->Uniform(bounds.min_x + half, bounds.max_x - half);
    const double y = rng->Uniform(bounds.min_y + half, bounds.max_y - half);
    batch.boxes.emplace_back(geometry::Point(x - half, y - half),
                             geometry::Point(x + half, y + half));
  }
  for (size_t i = 0; i < kKnnProbes; ++i) {
    batch.probes.emplace_back(rng->Uniform(bounds.min_x, bounds.max_x),
                              rng->Uniform(bounds.min_y, bounds.max_y));
  }
  return batch;
}

std::vector<double> SigmaBySensor(const sidq::store::RecoveryReport& report,
                                  size_t num_sensors, double gps_sigma) {
  std::vector<double> sigma(num_sensors, gps_sigma);
  for (const auto& [sensor, q] : report.sensor_quality) {
    const uint64_t total = q.rows_recovered + q.rows_lost;
    if (sensor >= num_sensors || total == 0) continue;
    sigma[sensor] = gps_sigma * (1.0 + static_cast<double>(q.rows_lost) /
                                           static_cast<double>(total));
  }
  return sigma;
}

std::vector<query::UncertainPoint> MakeUncertainPoints(
    const std::vector<SliceRow>& rows, const std::vector<double>& sigma,
    double default_sigma) {
  std::vector<query::UncertainPoint> objects;
  objects.reserve(rows.size());
  for (const SliceRow& row : rows) {
    const double s = row.rec.sensor < sigma.size() ? sigma[row.rec.sensor]
                                                   : default_sigma;
    objects.push_back(
        query::UncertainPoint::MakeGaussian(row.row_id, row.rec.loc, s));
  }
  return objects;
}

QueryOutcome RunQueryBatch(const std::vector<SliceRow>& rows,
                           const std::vector<double>& sigma,
                           double default_sigma, const QueryBatch& batch,
                           SpanRecorder* rec, uint64_t request) {
  QueryOutcome out;
  std::vector<query::UncertainPoint> objects;
  {
    ScopedSpan span(rec, "query.points", request);
    objects = MakeUncertainPoints(rows, sigma, default_sigma);
  }
  {
    ScopedSpan span(rec, "query.range", request);
    out.range = query::ProbabilisticRangeQueryMany(objects, batch.boxes,
                                                   kRangeTau, &out.range_stats);
  }
  std::vector<query::PruningStats> knn_stats(batch.probes.size());
  size_t knn_results = 0;
  {
    ScopedSpan span(rec, "query.knn", request);
    for (size_t i = 0; i < batch.probes.size(); ++i) {
      knn_results += query::ExpectedDistanceKnn(objects, batch.probes[i],
                                                kKnnK, &knn_stats[i])
                         .size();
    }
  }
  out.objects = objects.size();
  out.results = knn_results;
  for (const auto& ids : out.range) out.results += ids.size();
  for (const auto* stats : {&out.range_stats, &knn_stats}) {
    for (const query::PruningStats& s : *stats) {
      out.evaluated_exact += s.evaluated_exact;
      out.total_candidates += s.total_objects;
    }
  }
  return out;
}

void AddQueryLayer(const QueryOutcome& outcome,
                   std::map<std::string, double>* layer) {
  (*layer)["query.objects"] += static_cast<double>(outcome.objects);
  (*layer)["query.evaluated_exact"] +=
      static_cast<double>(outcome.evaluated_exact);
  (*layer)["query.results"] += static_cast<double>(outcome.results);
  (*layer)["query.candidates"] += static_cast<double>(outcome.total_candidates);
}

void FinishQueryLayer(std::map<std::string, double>* layer) {
  const double candidates = (*layer)["query.candidates"];
  layer->erase("query.candidates");
  (*layer)["query.pruned_fraction"] =
      candidates == 0.0
          ? 0.0
          : 1.0 - (*layer)["query.evaluated_exact"] / candidates;
}

}  // namespace perfbench
