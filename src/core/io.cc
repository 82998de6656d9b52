#include "core/io.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "core/vfs.h"

namespace sidq {

namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) out.push_back(field);
  // Trailing empty field ("a,b,") is significant.
  if (!line.empty() && line.back() == ',') out.push_back("");
  return out;
}

StatusOr<double> ParseDouble(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument(std::string("bad ") + what + ": '" + s +
                                   "'");
  }
  return v;
}

StatusOr<int64_t> ParseInt(const std::string& s, const char* what) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument(std::string("bad ") + what + ": '" + s +
                                   "'");
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Status WriteTrajectoriesCsv(const std::vector<Trajectory>& trajectories,
                            std::ostream& out) {
  out << "object_id,t_ms,x,y,accuracy\n";
  out.precision(10);
  for (const Trajectory& tr : trajectories) {
    for (const TrajectoryPoint& pt : tr.points()) {
      out << tr.object_id() << ',' << pt.t << ',' << pt.p.x << ',' << pt.p.y
          << ',' << pt.accuracy << '\n';
    }
  }
  if (!out.good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Status WriteTrajectoriesCsvFile(const std::vector<Trajectory>& trajectories,
                                const std::string& path) {
  // Serialize in memory, publish atomically: a crash or full disk cannot
  // leave a truncated CSV that parses as valid-but-short.
  std::ostringstream out;
  SIDQ_RETURN_IF_ERROR(WriteTrajectoriesCsv(trajectories, out));
  return AtomicWriteFile(DefaultVfs(), path, out.str());
}

StatusOr<std::vector<Trajectory>> ReadTrajectoriesCsv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty input");
  }
  std::map<ObjectId, Trajectory> by_object;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = SplitCsvLine(line);
    if (fields.size() != 4 && fields.size() != 5) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected 4-5 columns");
    }
    SIDQ_ASSIGN_OR_RETURN(int64_t id, ParseInt(fields[0], "object_id"));
    SIDQ_ASSIGN_OR_RETURN(int64_t t, ParseInt(fields[1], "t_ms"));
    SIDQ_ASSIGN_OR_RETURN(double x, ParseDouble(fields[2], "x"));
    SIDQ_ASSIGN_OR_RETURN(double y, ParseDouble(fields[3], "y"));
    double accuracy = -1.0;
    if (fields.size() == 5) {
      SIDQ_ASSIGN_OR_RETURN(accuracy, ParseDouble(fields[4], "accuracy"));
    }
    const ObjectId oid = static_cast<ObjectId>(id);
    auto it = by_object.find(oid);
    if (it == by_object.end()) {
      it = by_object.emplace(oid, Trajectory(oid)).first;
    }
    it->second.AppendUnordered(
        TrajectoryPoint(t, geometry::Point(x, y), accuracy));
  }
  std::vector<Trajectory> out;
  out.reserve(by_object.size());
  for (auto& [id, tr] : by_object) {
    tr.SortByTime();
    out.push_back(std::move(tr));
  }
  return out;
}

StatusOr<std::vector<Trajectory>> ReadTrajectoriesCsvFile(
    const std::string& path) {
  SIDQ_ASSIGN_OR_RETURN(std::string data, DefaultVfs()->ReadFile(path));
  std::istringstream in(std::move(data));
  return ReadTrajectoriesCsv(in);
}

Status WriteStidCsv(const StDataset& dataset, std::ostream& out) {
  out << "sensor_id,t_ms,x,y,value,stddev\n";
  out.precision(10);
  for (const StSeries& s : dataset.series()) {
    for (const StRecord& r : s.records()) {
      out << r.sensor << ',' << r.t << ',' << r.loc.x << ',' << r.loc.y
          << ',' << r.value << ',' << r.stddev << '\n';
    }
  }
  if (!out.good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Status WriteStidCsvFile(const StDataset& dataset, const std::string& path) {
  std::ostringstream out;
  SIDQ_RETURN_IF_ERROR(WriteStidCsv(dataset, out));
  return AtomicWriteFile(DefaultVfs(), path, out.str());
}

StatusOr<StDataset> ReadStidCsv(std::istream& in, std::string field_name) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty input");
  }
  struct Pending {
    geometry::Point loc;
    std::vector<StRecord> records;
  };
  std::map<SensorId, Pending> by_sensor;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = SplitCsvLine(line);
    if (fields.size() != 5 && fields.size() != 6) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected 5-6 columns");
    }
    SIDQ_ASSIGN_OR_RETURN(int64_t id, ParseInt(fields[0], "sensor_id"));
    SIDQ_ASSIGN_OR_RETURN(int64_t t, ParseInt(fields[1], "t_ms"));
    SIDQ_ASSIGN_OR_RETURN(double x, ParseDouble(fields[2], "x"));
    SIDQ_ASSIGN_OR_RETURN(double y, ParseDouble(fields[3], "y"));
    SIDQ_ASSIGN_OR_RETURN(double value, ParseDouble(fields[4], "value"));
    double stddev = -1.0;
    if (fields.size() == 6) {
      SIDQ_ASSIGN_OR_RETURN(stddev, ParseDouble(fields[5], "stddev"));
    }
    const SensorId sid = static_cast<SensorId>(id);
    auto it = by_sensor.find(sid);
    if (it == by_sensor.end()) {
      it = by_sensor.emplace(sid, Pending{geometry::Point(x, y), {}}).first;
    }
    it->second.records.emplace_back(sid, t, geometry::Point(x, y), value,
                                    stddev);
  }
  StDataset out(std::move(field_name));
  for (auto& [sid, pending] : by_sensor) {
    std::stable_sort(pending.records.begin(), pending.records.end(),
                     [](const StRecord& a, const StRecord& b) {
                       return a.t < b.t;
                     });
    StSeries series(sid, pending.loc);
    for (const StRecord& r : pending.records) {
      SIDQ_RETURN_IF_ERROR(series.Append(r.t, r.value, r.stddev));
    }
    out.AddSeries(std::move(series));
  }
  return out;
}

StatusOr<StDataset> ReadStidCsvFile(const std::string& path,
                                    std::string field_name) {
  SIDQ_ASSIGN_OR_RETURN(std::string data, DefaultVfs()->ReadFile(path));
  std::istringstream in(std::move(data));
  return ReadStidCsv(in, std::move(field_name));
}

}  // namespace sidq
