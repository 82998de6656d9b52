#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "core/quarantine.h"
#include "core/stid.h"
#include "core/types.h"
#include "stream/event_log.h"
#include "stream/rules.h"

namespace sidq {
namespace stream {

// Event-time window index of `t` for `window_ms`-wide tumbling windows
// aligned at epoch 0. Floor division, correct for negative timestamps.
[[nodiscard]] inline int64_t WindowIndexOf(Timestamp t, Timestamp window_ms) {
  int64_t q = t / window_ms;
  if (t % window_ms != 0 && t < 0) --q;
  return q;
}

// The verdict AdmissionFilter renders on one arriving event.
struct AdmissionDecision {
  bool admitted = false;
  QuarantineReason reason = QuarantineReason::kUnknownSensor;  // if !admitted
  const SensorRule* rule = nullptr;  // nullptr only for kUnknownSensor
  int64_t window_index = 0;          // event-time window of the record
};

// Stateful per-sensor admission control, evaluated in arrival (seq) order.
//
// This class is the determinism keystone of the stream layer: the engine
// and the batch reference both run their event logs through an
// AdmissionFilter with identical configuration, so "which records survive"
// is decided by one shared code path and the differential contract reduces
// to the downstream processing being order-insensitive.
//
// Check order (first failure wins, mirrors QuarantineReason numbering):
//   unknown sensor -> non-finite -> late -> duplicate -> out-of-range ->
//   window overflow -> admit.
//
// Watermark semantics: per sensor, W = max admitted event time minus the
// rule's max_lateness_ms; an event with t <= W is late. The watermark
// advances only on *admitted* records, so a single record with a garbage
// future timestamp cannot blind a sensor (it is rejected by range or
// finiteness first, or -- if it slips through -- at least later data is
// judged against data that passed the same gauntlet).
class AdmissionFilter {
 public:
  AdmissionFilter(const RuleSet* rules, Timestamp window_ms,
                  size_t window_capacity)
      : rules_(rules), window_ms_(window_ms), capacity_(window_capacity) {}

  // Judges one event; on admit, updates watermark/dedup/occupancy state.
  AdmissionDecision Observe(const StreamEvent& ev);

  // Current watermark for `sensor`: kMinTimestamp until the first admit.
  [[nodiscard]] Timestamp Watermark(SensorId sensor) const;

  // Retires window `window_index` of `sensor`: prunes its dedup and
  // occupancy state and returns how many duplicates were suppressed in it
  // (feeds the redundancy KPI). The engine calls this when the watermark
  // closes a window; the batch reference calls it while grouping.
  int64_t ReleaseWindow(SensorId sensor, int64_t window_index);

 private:
  struct SensorState {
    Timestamp max_admitted_t = kMinTimestamp;
    std::set<Timestamp> admitted_ts;            // pruned by ReleaseWindow
    std::map<int64_t, size_t> window_counts;    // window -> admitted records
    std::map<int64_t, int64_t> window_dups;     // window -> suppressed dups
  };

  const RuleSet* rules_;
  Timestamp window_ms_;
  size_t capacity_;
  std::map<SensorId, SensorState> sensors_;
};

}  // namespace stream
}  // namespace sidq
