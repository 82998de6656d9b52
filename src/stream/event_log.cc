#include "stream/event_log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/vfs.h"
#include "obs/export.h"

namespace sidq {
namespace stream {

namespace {

// Value key with a total order (NaN sorts last), so the comparator stays a
// strict weak ordering even for garbage measurements.
double OrderableValue(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
}

// Arrival-time ties break on measurement identity, never on the transient
// order RecordArrivals generated candidates in: the log is a pure function
// of (data, options, seed).
bool ArrivalLess(const StreamEvent& a, const StreamEvent& b) {
  const double av = OrderableValue(a.record.value);
  const double bv = OrderableValue(b.record.value);
  return std::tie(a.arrival_ms, a.record.sensor, a.record.t, av) <
         std::tie(b.arrival_ms, b.record.sensor, b.record.t, bv);
}

}  // namespace

EventLog RecordArrivals(const StDataset& data, const ArrivalOptions& options,
                        Rng* rng) {
  EventLog log;
  log.field_name = data.field_name();
  for (const StSeries& series : data.series()) {
    for (const StRecord& rec : series.records()) {
      StreamEvent ev;
      ev.record = rec;
      double delay = 0.0;
      if (rng != nullptr && options.mean_delay_ms > 0.0) {
        delay = rng->Exponential(1.0 / options.mean_delay_ms);
        if (options.straggler_probability > 0.0 &&
            rng->Bernoulli(options.straggler_probability)) {
          delay += rng->Uniform(0.0, options.straggler_delay_ms);
        }
      }
      ev.arrival_ms = rec.t + static_cast<Timestamp>(delay);
      const bool duplicated =
          rng != nullptr && options.duplicate_probability > 0.0 &&
          rng->Bernoulli(options.duplicate_probability);
      log.events.push_back(ev);
      if (duplicated) {
        StreamEvent dup = ev;
        dup.arrival_ms +=
            static_cast<Timestamp>(rng->Uniform(1.0, options.duplicate_delay_ms));
        log.events.push_back(dup);
      }
    }
  }
  std::stable_sort(log.events.begin(), log.events.end(), ArrivalLess);
  for (size_t i = 0; i < log.events.size(); ++i) {
    log.events[i].seq = static_cast<uint64_t>(i);
  }
  return log;
}

namespace {

constexpr char kHeaderPrefix[] = "# sidq-event-log v1 field=";
constexpr char kTrailerPrefix[] = "# sidq-event-log end count=";

// Torn-tail verdict: the on-disk bytes are a strict prefix of a valid log.
// Reason-coded DataLoss (never InvalidArgument) so callers can tell "the
// machine died mid-write, replay what survived elsewhere" apart from "this
// file is garbage".
Status TornTail(const std::string& path, const std::string& detail,
                obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    metrics->counter("stream.log.torn_tail").Increment(1);
  }
  return Status::DataLoss("torn tail in event log " + path + ": " + detail);
}

}  // namespace

Status WriteEventLogFile(const EventLog& log, const std::string& path) {
  std::ostringstream out;
  out << kHeaderPrefix << log.field_name << "\n";
  for (const StreamEvent& ev : log.events) {
    out << ev.seq << ' ' << ev.record.sensor << ' ' << ev.record.t << ' '
        << obs::internal_json::FormatDouble(ev.record.loc.x) << ' '
        << obs::internal_json::FormatDouble(ev.record.loc.y) << ' '
        << obs::internal_json::FormatDouble(ev.record.value) << ' '
        << obs::internal_json::FormatDouble(ev.record.stddev) << ' '
        << ev.arrival_ms << "\n";
  }
  // The trailer makes truncation detectable at every byte offset: cutting
  // mid-line leaves a partial line; cutting at a line boundary removes the
  // trailer itself.
  out << kTrailerPrefix << log.events.size() << "\n";
  return AtomicWriteFile(DefaultVfs(), path, out.str());
}

StatusOr<EventLog> ReadEventLogFile(const std::string& path,
                                    obs::MetricsRegistry* metrics) {
  SIDQ_ASSIGN_OR_RETURN(const std::string data, DefaultVfs()->ReadFile(path));
  if (data.empty()) {
    return Status::InvalidArgument("empty event log: " + path);
  }
  // A valid log always ends with a newline (the trailer's); anything else
  // is a write cut off mid-line.
  const bool ends_with_newline = data.back() == '\n';

  // Split into lines, keeping track of which is last.
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < data.size()) {
    const size_t nl = data.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(data.substr(start));
      break;
    }
    lines.push_back(data.substr(start, nl - start));
    start = nl + 1;
  }

  const std::string header = lines.empty() ? std::string() : lines[0];
  if (header.rfind(kHeaderPrefix, 0) != 0) {
    if (!ends_with_newline && lines.size() == 1) {
      // A partial first line could be a truncated header; a log this short
      // carries nothing recoverable either way.
      return TornTail(path, "partial header line", metrics);
    }
    return Status::InvalidArgument("bad event-log header: " + header);
  }
  EventLog log;
  log.field_name = header.substr(sizeof(kHeaderPrefix) - 1);

  bool saw_trailer = false;
  uint64_t trailer_count = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const bool is_last = i + 1 == lines.size();
    const bool is_partial = is_last && !ends_with_newline;
    const size_t lineno = i + 1;
    if (line.empty()) continue;
    if (saw_trailer) {
      return Status::InvalidArgument("data after trailer on event-log line " +
                                     std::to_string(lineno));
    }
    if (line.rfind(kTrailerPrefix, 0) == 0) {
      if (is_partial) {
        return TornTail(path, "partial trailer line", metrics);
      }
      const std::string count_str = line.substr(sizeof(kTrailerPrefix) - 1);
      char* end = nullptr;
      trailer_count = std::strtoull(count_str.c_str(), &end, 10);
      if (end == count_str.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad event-log trailer: " + line);
      }
      saw_trailer = true;
      continue;
    }
    // Tokenize, then convert doubles with strtod: istream's num_get never
    // accepts "nan"/"inf", but garbage measurements are exactly what event
    // logs exist to carry, so the codec must round-trip them.
    std::istringstream fields(line);
    std::string tok[8];
    bool short_line = false;
    for (std::string& t : tok) {
      if (!(fields >> t)) {
        short_line = true;
        break;
      }
    }
    StreamEvent ev;
    bool ok = !short_line;
    if (ok) {
      std::string extra;
      if (fields >> extra) {
        return Status::InvalidArgument("trailing fields on event-log line " +
                                       std::to_string(lineno));
      }
      auto to_u64 = [&ok](const std::string& s) -> uint64_t {
        char* end = nullptr;
        const uint64_t v = std::strtoull(s.c_str(), &end, 10);
        ok = ok && end != s.c_str() && *end == '\0';
        return v;
      };
      auto to_i64 = [&ok](const std::string& s) -> int64_t {
        char* end = nullptr;
        const int64_t v = std::strtoll(s.c_str(), &end, 10);
        ok = ok && end != s.c_str() && *end == '\0';
        return v;
      };
      auto to_double = [&ok](const std::string& s) -> double {
        char* end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        ok = ok && end != s.c_str() && *end == '\0';
        return v;
      };
      ev.seq = to_u64(tok[0]);
      ev.record.sensor = to_u64(tok[1]);
      ev.record.t = to_i64(tok[2]);
      ev.record.loc.x = to_double(tok[3]);
      ev.record.loc.y = to_double(tok[4]);
      ev.record.value = to_double(tok[5]);
      ev.record.stddev = to_double(tok[6]);
      ev.arrival_ms = to_i64(tok[7]);
    }
    if (!ok) {
      if (is_partial) {
        // An unparseable *final* line with no newline is truncation, not
        // garbling: every strict prefix of a valid data line lands here.
        return TornTail(path, "partial final line", metrics);
      }
      return Status::InvalidArgument("bad event-log line " +
                                     std::to_string(lineno) + ": " + line);
    }
    if (is_partial) {
      // Parsed cleanly but the newline is missing -- still a torn write
      // (and possibly a truncated number, e.g. "...  12" cut from "123").
      return TornTail(path, "final line missing newline", metrics);
    }
    log.events.push_back(ev);
  }
  if (!saw_trailer) {
    return TornTail(path, "missing trailer (log ends after " +
                              std::to_string(log.events.size()) +
                              " complete events)",
                    metrics);
  }
  if (trailer_count != log.events.size()) {
    return Status::InvalidArgument(
        "event-log trailer count " + std::to_string(trailer_count) +
        " != " + std::to_string(log.events.size()) + " events read");
  }
  for (size_t i = 0; i < log.events.size(); ++i) {
    if (log.events[i].seq != i) {
      return Status::InvalidArgument("event log seq gap at index " +
                                     std::to_string(i));
    }
  }
  return log;
}

}  // namespace stream
}  // namespace sidq
