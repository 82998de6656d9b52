// Seeded input generators and store fixtures shared by the workloads.
// Every generator is a pure function of its seed and sizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stid.h"
#include "core/types.h"
#include "geometry/bbox.h"
#include "harness.h"
#include "stream/engine.h"
#include "stream/event_log.h"

namespace perfbench {

// ---- stationary sensor field: the stream input of cold_scan -------------

// `sensors` stationary sensors sampling a smooth scalar field every minute
// for `samples` minutes, dirtied with noise and ~2% spikes, then recorded
// in arrival order with ~5% duplicate deliveries and ~5% stragglers whose
// delay can exceed the lateness bound of MakeStreamConfig().
sidq::stream::EventLog MakeSensorEventLog(uint64_t seed, int sensors,
                                          int samples);
sidq::stream::StreamConfig MakeStreamConfig();
uint64_t EventLogDigest(const sidq::stream::EventLog& log);

// ---- cold_scan / warm_query: mobile sensors ------------------------------

// Vehicle-mounted sensors sampling a scalar field along road routes, with
// GPS noise on every fix. Rows are ordered by (t, sensor), as a gateway
// appends them, so one block holds many vehicles at one moment and a time
// slice is a contiguous run of rows.
struct MobileRows {
  std::vector<sidq::StRecord> rows;
  sidq::Timestamp t_min = 0;
  sidq::Timestamp t_max = 0;
  sidq::geometry::BBox bounds;
  double gps_sigma_m = 0.0;
  size_t vehicles = 0;
};
MobileRows MakeMobileRows(uint64_t seed, size_t num_rows);
uint64_t RowsDigest(const std::vector<sidq::StRecord>& rows);

// Store layout of the fixtures: the StoreOptions defaults, so every rolled
// segment holds kSegmentBlocks full blocks of kBlockRecords rows.
inline constexpr size_t kBlockRecords = 256;
inline constexpr size_t kSegmentBlocks = 64;

// Appends `rows` to a fresh store in `dir` and closes it (one commit).
void BuildStore(const std::string& dir, const std::vector<sidq::StRecord>& rows,
                Ledger* ledger);

struct CorruptBlock {
  uint32_t segment = 0;
  uint32_t index = 0;  // block ordinal within the segment
  uint64_t row_start = 0;
  uint32_t row_count = 0;
};

// Flips one payload byte in a fixed set of interior blocks of rolled
// segments (every 8th segment from segment 3, never the tail segment),
// the media corruption that recovery must quarantine. The set depends only
// on the row count, not on the seed.
std::vector<CorruptBlock> CorruptFixedBlocks(const std::string& dir,
                                             size_t num_rows, Ledger* ledger);

// Digest of the rows a scan of the corrupted store must deliver, in row
// order: every row outside the corrupted blocks.
uint64_t ReadableRowsDigest(const std::vector<sidq::StRecord>& rows,
                            const std::vector<CorruptBlock>& corrupt);

// ---- files ----------------------------------------------------------------

void RemoveTree(const std::string& dir);
// Recreates `to` as a tree of hard links to the files under `from`.
bool LinkTree(const std::string& from, const std::string& to);
uint64_t TreeBytes(const std::string& dir);

}  // namespace perfbench
