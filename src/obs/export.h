#pragma once

#include <string>
#include <vector>

#include "core/statusor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sidq {
namespace obs {

// Canonical JSON exporters. "Canonical" means: fixed key order, no
// whitespace variation, shortest-round-trip double formatting -- two equal
// snapshots serialize to byte-identical strings, which is what lets
// run_all.sh `cmp` the output of two seeded runs and what the golden-trace
// tests pin.
//
// Both exporters fail loudly instead of emitting invalid JSON: a histogram
// flagged invalid (NaN/Inf samples or bad bounds) or any non-finite value
// in the data yields Status::InvalidArgument. Callers publish the
// strings with AtomicWriteFile (core/vfs.h), so a crash mid-export never
// leaves a truncated document.

// Serializes a merged snapshot:
//   {"counters":[{"name":...,"value":...}],
//    "gauges":[...],
//    "histograms":[{"name","bounds","bucket_counts","overflow","count",
//                   "sum","max","p50","p99"}]}
[[nodiscard]] StatusOr<std::string> MetricsToJson(const MetricsSnapshot& snap);

// Serializes canonical spans in Chrome trace_event format (load in
// chrome://tracing or Perfetto): {"traceEvents":[...]} with complete
// events (ph:"X"), ts/dur in microseconds, pid 1, tid = object id + 1
// (kProcessKey maps to tid 0), and args {key, depth, seq[, note]}.
[[nodiscard]] StatusOr<std::string> TraceToChromeJson(
    const std::vector<SpanRecord>& spans);

namespace internal_json {
// Shortest-round-trip formatting for a finite double; integer-valued
// doubles print without an exponent or trailing ".0" ambiguity concerns
// (e.g. 250 -> "250", 0.5 -> "0.5").
std::string FormatDouble(double v);
// JSON string escaping (quotes, backslash, control chars).
std::string EscapeString(const std::string& s);
}  // namespace internal_json

}  // namespace obs
}  // namespace sidq
