#include "obs/export.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace sidq {
namespace obs {

namespace internal_json {

std::string FormatDouble(double v) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace internal_json

namespace {

using internal_json::EscapeString;
using internal_json::FormatDouble;

void AppendDoubleArray(const std::vector<double>& vals, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += FormatDouble(vals[i]);
  }
  out->push_back(']');
}

void AppendIntArray(const std::vector<int64_t>& vals, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += std::to_string(vals[i]);
  }
  out->push_back(']');
}

}  // namespace

StatusOr<std::string> MetricsToJson(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\":[";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    const CounterValue& c = snap.counters[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":\"" + EscapeString(c.name) +
           "\",\"value\":" + std::to_string(c.value) + "}";
  }
  out += "],\"gauges\":[";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    const GaugeValue& g = snap.gauges[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":\"" + EscapeString(g.name) +
           "\",\"value\":" + std::to_string(g.value) + "}";
  }
  out += "],\"histograms\":[";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramValue& h = snap.histograms[i];
    if (h.invalid) {
      return Status::InvalidArgument("histogram '" + h.name +
                                     "' is invalid (non-finite samples or "
                                     "bad bounds); refusing to export");
    }
    if (!std::isfinite(h.sum) || !std::isfinite(h.max) ||
        !std::isfinite(h.p50) || !std::isfinite(h.p99)) {
      return Status::InvalidArgument("histogram '" + h.name +
                                     "' has non-finite aggregates; "
                                     "refusing to export");
    }
    for (const double b : h.bounds) {
      if (!std::isfinite(b)) {
        return Status::InvalidArgument("histogram '" + h.name +
                                       "' has non-finite bounds; "
                                       "refusing to export");
      }
    }
    if (i > 0) out.push_back(',');
    out += "{\"name\":\"" + EscapeString(h.name) + "\",\"bounds\":";
    AppendDoubleArray(h.bounds, &out);
    out += ",\"bucket_counts\":";
    AppendIntArray(h.bucket_counts, &out);
    out += ",\"overflow\":" + std::to_string(h.overflow);
    out += ",\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + FormatDouble(h.sum);
    out += ",\"max\":" + FormatDouble(h.max);
    out += ",\"p50\":" + FormatDouble(h.p50);
    out += ",\"p99\":" + FormatDouble(h.p99);
    out += "}";
  }
  out += "]}";
  return out;
}

StatusOr<std::string> TraceToChromeJson(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.end_ms < s.start_ms) {
      return Status::InvalidArgument("span '" + s.name +
                                     "' ends before it starts; "
                                     "refusing to export");
    }
    if (i > 0) out.push_back(',');
    // Chrome trace_event wants microseconds; our clocks are millisecond
    // resolution, so scale exactly.
    const int64_t ts_us = s.start_ms * 1000;
    const int64_t dur_us = (s.end_ms - s.start_ms) * 1000;
    const uint64_t tid = s.key == kProcessKey ? 0 : s.key + 1;
    out += "{\"name\":\"" + EscapeString(s.name) + "\",\"cat\":\"" +
           EscapeString(s.category) + "\",\"ph\":\"X\",\"ts\":" +
           std::to_string(ts_us) + ",\"dur\":" + std::to_string(dur_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(tid) + ",\"args\":{";
    out += "\"key\":" + (s.key == kProcessKey ? std::string("-1")
                                              : std::to_string(s.key));
    out += ",\"depth\":" + std::to_string(s.depth);
    out += ",\"seq\":" + std::to_string(s.seq);
    if (!s.note.empty()) {
      out += ",\"note\":\"" + EscapeString(s.note) + "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace sidq
