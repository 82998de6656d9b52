// The quality-aware query batch shared by cold_scan and warm_query: rows
// from a store scan become Gaussian uncertain points whose sigma carries
// the store's recovery verdict (propagate, don't filter), then a fixed
// number of probabilistic range boxes and expected-distance kNN probes
// run over them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/stid.h"
#include "geometry/bbox.h"
#include "harness.h"
#include "query/uncertain_point.h"
#include "store/store.h"

namespace perfbench {

inline constexpr size_t kQueryBoxes = 32;
inline constexpr double kQueryBoxSideM = 400.0;
inline constexpr size_t kKnnProbes = 4;
inline constexpr size_t kKnnK = 10;
inline constexpr double kRangeTau = 0.5;

struct SliceRow {
  uint64_t row_id = 0;
  sidq::StRecord rec;
};

struct QueryBatch {
  std::vector<sidq::geometry::BBox> boxes;
  std::vector<sidq::geometry::Point> probes;
};
QueryBatch MakeQueryBatch(sidq::Rng* rng, const sidq::geometry::BBox& bounds);

// sigma[sensor] = gps_sigma * (1 + share of the sensor's rows that recovery
// lost), for sensors 0..num_sensors-1.
std::vector<double> SigmaBySensor(const sidq::store::RecoveryReport& report,
                                  size_t num_sensors, double gps_sigma);

std::vector<sidq::query::UncertainPoint> MakeUncertainPoints(
    const std::vector<SliceRow>& rows, const std::vector<double>& sigma,
    double default_sigma);

struct QueryOutcome {
  std::vector<std::vector<sidq::ObjectId>> range;  // one list per box
  std::vector<sidq::query::PruningStats> range_stats;
  size_t objects = 0;
  size_t evaluated_exact = 0;  // range + kNN
  size_t total_candidates = 0;  // objects considered, range + kNN
  size_t results = 0;
};

// Runs the batch under spans query.points / query.range / query.knn.
QueryOutcome RunQueryBatch(const std::vector<SliceRow>& rows,
                           const std::vector<double>& sigma,
                           double default_sigma, const QueryBatch& batch,
                           SpanRecorder* rec, uint64_t request);

// Adds the outcome's counters to per-layer values; FinishQueryLayer then
// turns the sums into query.pruned_fraction.
void AddQueryLayer(const QueryOutcome& outcome,
                   std::map<std::string, double>* layer);
void FinishQueryLayer(std::map<std::string, double>* layer);

}  // namespace perfbench
