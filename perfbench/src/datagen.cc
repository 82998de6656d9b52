#include "datagen.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <system_error>

#include "core/random.h"
#include "sim/road_network.h"
#include "sim/sensor_field.h"
#include "sim/trajectory_sim.h"
#include "store/format.h"
#include "store/store.h"
#include "store/vfs.h"

namespace perfbench {

using sidq::Rng;
using sidq::StRecord;
using sidq::Timestamp;
namespace geometry = sidq::geometry;
namespace sim = sidq::sim;
namespace store = sidq::store;
namespace stream = sidq::stream;

// ---- stationary sensor field (the stream input of cold_scan) ------------------

stream::EventLog MakeSensorEventLog(uint64_t seed, int sensors, int samples) {
  Rng rng(sidq::DeriveSeed(seed, 0x1A6E57));
  const geometry::BBox bounds(geometry::Point(0, 0),
                              geometry::Point(20000, 20000));
  const sim::ScalarField field = sim::ScalarField::MakeRandom(
      bounds, 6, 20.0, 30.0, 300.0, 2000.0, 3600.0, &rng);
  const std::vector<geometry::Point> sites =
      sim::DeploySensors(bounds, sensors, &rng);
  sidq::StDataset truth =
      sim::SampleField(field, sites, 0, 60'000, samples, "pm25");
  sidq::StDataset dirty = sim::AddValueNoise(truth, 0.8, &rng);
  dirty = sim::AddValueSpikes(dirty, 0.02, 400.0, &rng);

  stream::ArrivalOptions arrivals;
  arrivals.mean_delay_ms = 20'000;
  arrivals.straggler_probability = 0.05;
  arrivals.straggler_delay_ms = 400'000;  // > max_lateness: some go late
  arrivals.duplicate_probability = 0.05;
  return stream::RecordArrivals(dirty, arrivals, &rng);
}

stream::StreamConfig MakeStreamConfig() {
  stream::StreamConfig config;
  stream::SensorRule rule;
  rule.min_value = -50.0;
  rule.max_value = 500.0;
  rule.expected_interval_ms = 60'000;
  rule.max_lateness_ms = 120'000;
  rule.max_rate_per_s = 1.0;
  config.rules.set_default_rule(rule);
  config.window_ms = 300'000;
  config.window_capacity = 32;
  config.robust_z.z_threshold = 4.0;
  config.robust_z.min_samples = 6;
  return config;
}

uint64_t EventLogDigest(const stream::EventLog& log) {
  Fnv64 h;
  for (const stream::StreamEvent& ev : log.events) {
    h.AddU64(ev.seq);
    h.AddU64(static_cast<uint64_t>(ev.arrival_ms));
    h.AddRecord(ev.record);
  }
  return h.value();
}

// ---- mobile sensors ----------------------------------------------------------

MobileRows MakeMobileRows(uint64_t seed, size_t num_rows) {
  constexpr int kGrid = 32;
  constexpr double kSpacing = 250.0;
  constexpr size_t kMinHops = 40;
  constexpr Timestamp kStartSpreadMs = 3'600'000;

  MobileRows out;
  out.gps_sigma_m = 8.0;
  Rng rng(sidq::DeriveSeed(seed, 0xC01D5CA));
  const sim::RoadNetwork network = sim::MakeGridRoadNetwork(
      kGrid, kGrid, kSpacing, kSpacing * 0.05, 0.05, &rng);
  out.bounds = geometry::BBox(geometry::Point(-kSpacing, -kSpacing),
                              geometry::Point(kGrid * kSpacing,
                                              kGrid * kSpacing));
  const sim::ScalarField field = sim::ScalarField::MakeRandom(
      out.bounds, 6, 20.0, 40.0, 300.0, 1500.0, 3600.0, &rng);
  sim::TrajectorySimulator::Options sim_options;
  sim_options.sample_interval_ms = 2000;
  const sim::TrajectorySimulator simulator(sim_options, &rng);

  out.rows.reserve(num_rows + 4096);
  sidq::ObjectId vehicle = 0;
  int dead_ends = 0;
  while (out.rows.size() < num_rows && dead_ends < 10'000) {
    sidq::StatusOr<sidq::Trajectory> route =
        simulator.RandomOnNetwork(network, kMinHops, vehicle);
    if (!route.ok()) {  // dead-end walk; the next draw differs
      ++dead_ends;
      continue;
    }
    Rng noise = Rng::ForKey(seed, vehicle);
    const Timestamp offset = noise.UniformInt(0, kStartSpreadMs);
    for (const sidq::TrajectoryPoint& pt : route->points()) {
      const Timestamp t = pt.t + offset;
      const geometry::Point fix(pt.p.x + noise.Gaussian(0.0, out.gps_sigma_m),
                                pt.p.y + noise.Gaussian(0.0, out.gps_sigma_m));
      out.rows.emplace_back(vehicle, t, fix,
                            field.Value(pt.p, t) + noise.Gaussian(0.0, 0.5),
                            0.5);
    }
    ++vehicle;
  }
  out.vehicles = vehicle;
  std::sort(out.rows.begin(), out.rows.end(),
            [](const StRecord& a, const StRecord& b) {
              return a.t != b.t ? a.t < b.t : a.sensor < b.sensor;
            });
  out.rows.resize(std::min(num_rows, out.rows.size()));
  if (out.rows.empty()) return out;
  out.t_min = out.rows.front().t;
  out.t_max = out.rows.back().t;
  return out;
}

uint64_t RowsDigest(const std::vector<StRecord>& rows) {
  Fnv64 h;
  for (const StRecord& r : rows) h.AddRecord(r);
  return h.value();
}

void BuildStore(const std::string& dir, const std::vector<StRecord>& rows,
                Ledger* ledger) {
  RemoveTree(dir);
  store::StoreOptions options;
  options.block_records = kBlockRecords;
  options.segment_target_blocks = kSegmentBlocks;
  options.field_name = "mobile";
  sidq::StatusOr<std::unique_ptr<store::Store>> db =
      store::Store::Open(nullptr, dir, options);
  ledger->Op(db.status(), "setup Store::Open");
  if (!db.ok()) return;
  for (const StRecord& r : rows) {
    const sidq::Status st = (*db)->Append(r);
    if (!st.ok()) {
      ledger->Op(st, "setup Store::Append");
      return;
    }
  }
  ledger->Op((*db)->Close(), "setup Store::Close");
}

std::vector<CorruptBlock> CorruptFixedBlocks(const std::string& dir,
                                             size_t num_rows, Ledger* ledger) {
  const size_t rows_per_segment = kBlockRecords * kSegmentBlocks;
  const size_t segments = (num_rows + rows_per_segment - 1) / rows_per_segment;
  store::Vfs* vfs = store::DefaultVfs();
  std::vector<CorruptBlock> out;
  for (size_t seg = 3; seg + 1 < segments; seg += 8) {
    const auto index = static_cast<uint32_t>(1 + (seg / 8) % (kSegmentBlocks - 2));
    const std::string path =
        dir + "/" + store::SegmentFileName(static_cast<uint32_t>(seg));
    sidq::StatusOr<std::string> data = vfs->ReadFile(path);
    ledger->Op(data.status(), "setup corrupt read");
    if (!data.ok()) continue;
    uint64_t offset = 0;
    bool found = true;
    for (uint32_t b = 0; b < index; ++b) {
      const store::ParsedBlock parsed = store::ParseBlockAt(*data, offset);
      if (parsed.defect != store::BlockDefect::kNone) {
        found = false;
        break;
      }
      offset += parsed.bytes_consumed;
    }
    const uint64_t flip = offset + store::kBlockHeaderSize + 4;
    ledger->Gate(found && flip < data->size(), "locate block to corrupt");
    if (!found || flip >= data->size()) continue;
    (*data)[flip] = static_cast<char>((*data)[flip] ^ 0x10);
    sidq::StatusOr<std::unique_ptr<store::WritableFile>> f =
        vfs->NewWritableFile(path, store::WriteMode::kTruncate);
    ledger->Op(f.status(), "setup corrupt reopen");
    if (!f.ok()) continue;
    sidq::Status st = (*f)->Append(data->data(), data->size());
    if (st.ok()) st = (*f)->Sync();
    if (st.ok()) st = (*f)->Close();
    ledger->Op(st, "setup corrupt rewrite");
    CorruptBlock cb;
    cb.segment = static_cast<uint32_t>(seg);
    cb.index = index;
    cb.row_start = (seg * kSegmentBlocks + index) * kBlockRecords;
    cb.row_count = static_cast<uint32_t>(kBlockRecords);
    out.push_back(cb);
  }
  return out;
}

uint64_t ReadableRowsDigest(const std::vector<StRecord>& rows,
                            const std::vector<CorruptBlock>& corrupt) {
  Fnv64 h;
  size_t next = 0;
  for (uint64_t i = 0; i < rows.size(); ++i) {
    if (next < corrupt.size() && i >= corrupt[next].row_start) {
      if (i < corrupt[next].row_start + corrupt[next].row_count) continue;
      ++next;
    }
    h.AddRecord(rows[i]);
  }
  return h.value();
}

// ---- files -------------------------------------------------------------------

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

bool LinkTree(const std::string& from, const std::string& to) {
  RemoveTree(to);
  std::error_code ec;
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::create_hard_links,
                        ec);
  return !ec;
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
