#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/arena.h"
#include "core/quality.h"
#include "core/quarantine.h"
#include "core/stid.h"
#include "core/types.h"
#include "outlier/online_detectors.h"
#include "refine/online_kalman.h"
#include "stream/event_log.h"
#include "stream/rules.h"

namespace sidq {
namespace stream {

// Bounded buffer for one sensor's one open event-time window. Capacity is
// fixed at construction; the admission filter guarantees Push is never
// called on a full window (overflow records are quarantined upstream), so
// memory per open window is a hard constant regardless of sensor behaviour.
class RingWindow {
 public:
  explicit RingWindow(size_t capacity) { events_.reserve(capacity); }

  void Push(const StreamEvent& ev) { events_.push_back(ev); }
  [[nodiscard]] size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  // Drains the window's events sorted by event time. Admission dedups on
  // (sensor, t), so event times are unique within a window and this sort
  // is a total order -- arrival order cannot leak into window processing.
  [[nodiscard]] std::vector<StreamEvent> TakeSortedByTime();

  // Same drain into arena scratch (the stream engine's window-close path):
  // the sorted events live until the caller's ArenaScope rewinds, and the
  // close performs no heap allocation for them.
  [[nodiscard]] StreamEvent* TakeSortedByTime(Arena* arena, size_t* count);

 private:
  std::vector<StreamEvent> events_;
};

// Windowed data-quality KPIs for one (sensor, window), the streaming
// counterpart of StidProfiler's dataset-level dimensions: completeness,
// redundancy, time sparsity (max gap), precision, and consistency, plus
// window aggregates and the online detectors' verdicts.
struct WindowKpis {
  SensorId sensor = kInvalidSensorId;
  Timestamp window_start = 0;
  Timestamp window_end = 0;
  int64_t count = 0;       // admitted records surviving the outlier gate
  int64_t outliers = 0;    // robust-z rejections at window close
  int64_t duplicates = 0;  // suppressed duplicate deliveries
  double completeness = 0.0;   // count / expected records per window
  double redundancy = 0.0;     // duplicates / (duplicates + count)
  Timestamp max_gap_ms = 0;    // time sparsity within the window
  double precision_stddev = 0.0;  // mean posterior stddev of the estimates
  int64_t consistency_violations = 0;  // |dv/dt| beyond the rule's rate
  double mean_value = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  bool drift = false;  // Page-Hinkley signalled inside this window
};

// Alert thresholds on the windowed KPIs; a window tripping one emits a
// KpiAlert tagged with the DqDimension it degrades.
struct KpiThresholds {
  double min_completeness = 0.5;
  double max_redundancy = 0.25;
  Timestamp max_gap_ms = 300'000;
  int64_t max_consistency_violations = 0;
};

struct KpiAlert {
  SensorId sensor = kInvalidSensorId;
  Timestamp window_start = 0;
  DqDimension dimension = DqDimension::kCompleteness;
  double observed = 0.0;
  double threshold = 0.0;
};

// Per-sensor online cleaning state threaded across that sensor's windows:
// the incremental Kalman level/trend filter, the rolling robust-z outlier
// gate, and the Page-Hinkley drift detector. Windows of one sensor close
// in event-time order, so this state sees records in event-time order too.
struct SensorPipeline {
  SensorPipeline() = default;
  SensorPipeline(const refine::OnlineKalman1D::Options& kalman_options,
                 const outlier::RollingRobustZ::Options& robust_z_options,
                 const outlier::PageHinkley::Options& drift_options)
      : kalman(kalman_options),
        robust_z(robust_z_options),
        drift(drift_options) {}

  refine::OnlineKalman1D kalman;
  outlier::RollingRobustZ robust_z;
  outlier::PageHinkley drift;
};

// Processes one closed window: events (already admitted) in event-time
// order run through the outlier gate then the Kalman update; survivors
// append to `cleaned` with the filtered value and posterior stddev,
// rejects go to `ledger` as kOutlier. Computes the window KPIs and any
// threshold alerts. Shared verbatim by the stream engine and the batch
// reference -- the differential contract holds because both sides call
// exactly this function on identical admitted event sets.
WindowKpis ProcessWindow(SensorId sensor, int64_t window_index,
                         Timestamp window_ms, std::vector<StreamEvent> events,
                         int64_t duplicates, const SensorRule& rule,
                         const KpiThresholds& thresholds,
                         SensorPipeline* pipeline,
                         std::vector<StRecord>* cleaned,
                         QuarantineLedger* ledger,
                         std::vector<KpiAlert>* alerts);

// Span form of the same function (sorts `events` in place). This is the
// single implementation both overloads share: the stream engine passes
// arena scratch, the batch reference passes its vector's storage -- so the
// stream-vs-batch differential contract is preserved by construction.
WindowKpis ProcessWindow(SensorId sensor, int64_t window_index,
                         Timestamp window_ms, StreamEvent* events,
                         size_t event_count, int64_t duplicates,
                         const SensorRule& rule,
                         const KpiThresholds& thresholds,
                         SensorPipeline* pipeline,
                         std::vector<StRecord>* cleaned,
                         QuarantineLedger* ledger,
                         std::vector<KpiAlert>* alerts);

// Canonical JSON object for one window's KPIs (keys in fixed order).
[[nodiscard]] std::string WindowKpisToJson(const WindowKpis& kpis);

// Canonical JSON object for one alert.
[[nodiscard]] std::string KpiAlertToJson(const KpiAlert& alert);

}  // namespace stream
}  // namespace sidq
