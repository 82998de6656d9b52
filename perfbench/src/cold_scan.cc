// cold_scan: restart a store larger than its cache, resume ingesting, then
// serve reads. Timed, in order:
//   - Store::Open: recovery CRC-checks every block and quarantines the
//     corrupted ones (restart-to-serving);
//   - the write path: a fresh serial StreamEngine gets 256-event
//     micro-batches of Push from a sensor-field event log, then Flush and
//     TakeOutput, and every cleaned row is appended to the recovered store
//     and committed (block seal, CRC, fsync, manifest publish);
//   - Compact;
//   - two full Scan passes under a 16 MB cache budget (the decoded data is
//     >= 4x the budget, so every block read misses);
//   - one fixed batch of quality-aware queries over the last time slice;
//   - Close.
// Reads come from the OS page cache: the figures are this machine's, not
// a storage device's.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "datagen.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "quality_query.h"
#include "store/format.h"
#include "store/store.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sidq::Status;
using sidq::StRecord;
namespace obs = sidq::obs;
namespace store = sidq::store;
namespace stream = sidq::stream;

constexpr size_t kRows = 2'000'000;
constexpr size_t kCacheBytes = size_t{16} << 20;
constexpr sidq::Timestamp kSliceMs = 300'000;
// The resumed ingest: 1,000 stationary sensors x 40 one-minute samples,
// ~42k arrival-ordered events, ~165 micro-batches per iteration.
constexpr int kStreamSensors = 1000;
constexpr int kStreamSamples = 40;
constexpr size_t kBatchEvents = 256;
constexpr uint64_t kCommitEveryRows = 65'536;

// Digest and row count of one Scan pass, plus the delivery gap of every
// block: the time from one block's first row to the next block's first
// row, i.e. handing out a block's rows plus fetching the next block.
struct ScanPass {
  Fnv64 digest;
  uint64_t rows = 0;
};

std::function<void(uint64_t, const StRecord&)> ScanCallback(
    ScanPass* pass, std::vector<double>* block_gaps_ms,
    std::vector<SliceRow>* slice, sidq::Timestamp slice_lo) {
  return [pass, block_gaps_ms, slice, slice_lo, block = ~uint64_t{0},
          last_ns = int64_t{0}](uint64_t row_id, const StRecord& rec) mutable {
    const uint64_t b = row_id / kBlockRecords;
    if (b != block) {
      const int64_t now = NowNs();
      if (block != ~uint64_t{0}) block_gaps_ms->push_back(NsToMs(now - last_ns));
      block = b;
      last_ns = now;
    }
    pass->digest.AddRecord(rec);
    ++pass->rows;
    if (slice != nullptr && rec.t >= slice_lo) slice->push_back({row_id, rec});
  };
}

bool SameBlocks(const std::vector<store::QuarantinedBlockEntry>& got,
                const std::vector<CorruptBlock>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].segment != want[i].segment || got[i].index != want[i].index ||
        got[i].row_start != want[i].row_start ||
        got[i].row_count != want[i].row_count) {
      return false;
    }
  }
  return true;
}

class ColdScan final : public Workload {
 public:
  ColdScan(const RunOptions& options, Ledger* ledger)
      : options_(options),
        ledger_(ledger),
        pristine_dir_(options.work_dir + "/cold-pristine"),
        run_dir_(options.work_dir + "/cold-run") {
    sinks_.metrics = &registry_;
  }

  uint64_t Setup() override {
    MobileRows data = MakeMobileRows(options_.seed, kRows);
    BuildStore(pristine_dir_, data.rows, ledger_);
    corrupt_ = CorruptFixedBlocks(pristine_dir_, data.rows.size(), ledger_);
    readable_digest_ = ReadableRowsDigest(data.rows, corrupt_);
    sidq::Rng rng(sidq::DeriveSeed(options_.seed, 0xB47C4));
    batch_ = MakeQueryBatch(&rng, data.bounds);
    rows_ = data.rows.size();
    vehicles_ = data.vehicles;
    gps_sigma_m_ = data.gps_sigma_m;
    slice_lo_ = data.t_max - kSliceMs;
    const size_t rows_per_segment = kBlockRecords * kSegmentBlocks;
    tail_segment_ = store::SegmentFileName(
        static_cast<uint32_t>((rows_ + rows_per_segment - 1) / rows_per_segment - 1));
    log_ = MakeSensorEventLog(options_.seed, kStreamSensors, kStreamSamples);
    Fnv64 digest(RowsDigest(data.rows));
    digest.AddU64(EventLogDigest(log_));
    return digest.value();
  }

  IterationResult Iterate(uint64_t index, SpanRecorder* rec) override;
  void Gates() override;

  double tail_q() const override { return 0.99; }
  const char* op_name() const override {
    return "one block delivered by Store::Scan (block-to-block gap)";
  }
  const char* item_name() const override { return "rows scanned"; }

  void Describe(JsonObject* record) const override {
    record->Int("rows", static_cast<int64_t>(rows_))
        .Int("vehicles", static_cast<int64_t>(vehicles_))
        .Int("block_records", kBlockRecords)
        .Int("segment_blocks", kSegmentBlocks)
        .Int("corrupted_blocks", static_cast<int64_t>(corrupt_.size()))
        .Int("cache_bytes", kCacheBytes)
        .Int("stream_sensors", kStreamSensors)
        .Int("stream_samples_per_sensor", kStreamSamples)
        .Int("stream_events", static_cast<int64_t>(log_.events.size()))
        .Int("batch_events", kBatchEvents)
        .Int("commit_every_rows", kCommitEveryRows)
        .Int("scan_passes", 2)
        .Int("query_slice_ms", kSliceMs)
        .Int("query_boxes", kQueryBoxes)
        .Int("knn_probes", kKnnProbes);
  }

 private:
  store::StoreOptions Options() {
    store::StoreOptions o;
    o.block_records = kBlockRecords;
    o.segment_target_blocks = kSegmentBlocks;
    o.field_name = "mobile";
    o.cache_bytes = kCacheBytes;
    o.obs = sinks_;
    return o;
  }

  // Recreates the never-recovered, corrupted store in run_dir_. Hard links
  // suffice for every file recovery and compaction replace by rename; the
  // tail segment, which the resumed ingest appends to, is copied.
  bool ResetRunDir() {
    if (!LinkTree(pristine_dir_, run_dir_)) return false;
    std::error_code ec;
    const std::string tail = run_dir_ + "/" + tail_segment_;
    std::filesystem::remove(tail, ec);
    return !ec && std::filesystem::copy_file(pristine_dir_ + "/" + tail_segment_,
                                             tail, ec);
  }

  // Pushes the event log through a fresh engine in micro-batches, then
  // appends every cleaned row to `db` and commits.
  stream::StreamOutput Ingest(store::Store* db, SpanRecorder* rec,
                              IterationResult* r);

  RunOptions options_;
  Ledger* ledger_;
  const std::string pristine_dir_;
  const std::string run_dir_;
  obs::MetricsRegistry registry_;
  obs::ObsSinks sinks_;

  std::vector<CorruptBlock> corrupt_;
  uint64_t readable_digest_ = 0;  // rows outside the corrupted blocks
  QueryBatch batch_;
  size_t rows_ = 0;
  size_t vehicles_ = 0;
  double gps_sigma_m_ = 0.0;
  sidq::Timestamp slice_lo_ = 0;
  std::string tail_segment_;
  stream::EventLog log_;
  const stream::StreamConfig config_ = MakeStreamConfig();

  // Outcome of the iterations, checked by Gates().
  uint64_t first_output_checksum_ = 0;
  std::vector<uint64_t> cleaned_digests_;
};

stream::StreamOutput ColdScan::Ingest(store::Store* db, SpanRecorder* rec,
                                      IterationResult* r) {
  const int64_t t0 = NowNs();
  stream::StreamEngine engine(config_, sinks_);
  engine.set_field_name(log_.field_name);
  const std::vector<stream::StreamEvent>& events = log_.events;
  LogHistogram push_hist;
  for (size_t b = 0; b < events.size(); b += kBatchEvents) {
    const size_t e = std::min(events.size(), b + kBatchEvents);
    ScopedSpan span(rec, "stream.push", b / kBatchEvents);
    if (rec == nullptr) {
      for (size_t i = b; i < e; ++i) {
        ledger_->Op(engine.Push(events[i]), "StreamEngine::Push");
      }
    } else {
      for (size_t i = b; i < e; ++i) {
        const int64_t p0 = NowNs();
        const Status s = engine.Push(events[i]);
        push_hist.Record(NowNs() - p0);
        ledger_->Op(s, "StreamEngine::Push");
      }
    }
  }
  {
    ScopedSpan span(rec, "stream.flush", 0);
    ledger_->Op(engine.Flush(), "StreamEngine::Flush");
  }
  stream::StreamOutput out;
  {
    ScopedSpan span(rec, "stream.take_output", 0);
    out = engine.TakeOutput();
  }

  uint64_t appended = 0;
  int64_t commits = 0;
  int64_t commit_max_ns = 0;
  const std::vector<sidq::StSeries>& series = out.cleaned.series();
  size_t si = 0, ri = 0;
  for (uint64_t chunk = 0; si < series.size(); ++chunk) {
    uint64_t in_chunk = 0;
    {
      ScopedSpan span(rec, "store.append", chunk);
      while (si < series.size() && in_chunk < kCommitEveryRows) {
        const std::vector<StRecord>& rows = series[si].records();
        if (ri == rows.size()) {
          ++si;
          ri = 0;
          continue;
        }
        ledger_->Op(db->Append(rows[ri++]), "Store::Append");
        ++in_chunk;
      }
    }
    appended += in_chunk;
    ScopedSpan span(rec, "store.commit", chunk);
    const int64_t c0 = NowNs();
    ledger_->Op(db->Commit(), "Store::Commit");
    commit_max_ns = std::max(commit_max_ns, NowNs() - c0);
    ++commits;
  }
  // First Push to last Commit; reported as ingest_events_per_s.
  r->layer["ingest_s"] = NsToS(NowNs() - t0);

  const auto n = static_cast<double>(events.size());
  const auto cleaned = static_cast<double>(out.cleaned.TotalRecords());
  int64_t windows = 0;
  for (const stream::SensorSummary& s : out.sensors) windows += s.windows_closed;
  r->layer["stream.events_in"] = n;
  r->layer["stream.rows_cleaned"] = cleaned;
  r->layer["stream.quarantined"] = static_cast<double>(out.ledger.size());
  r->layer["stream.admit_ratio"] = cleaned / n;
  r->layer["stream.windows_closed"] = static_cast<double>(windows);
  r->layer["store.commits"] = static_cast<double>(commits);
  r->layer["store.commit_max_ms"] = NsToMs(commit_max_ns);
  if (rec != nullptr) {
    r->layer["stream.push_p99_us"] = push_hist.PercentileNs(0.99) / 1e3;
  }
  ledger_->Gate(appended == out.cleaned.TotalRecords(),
                "every cleaned row appended");
  return out;
}

IterationResult ColdScan::Iterate(uint64_t index, SpanRecorder* rec) {
  IterationResult r;
  ledger_->Gate(ResetRunDir(), "restore the pristine store");
  const store::StoreOptions store_options = Options();
  const uint64_t bytes_before = TreeBytes(run_dir_);

  std::unique_ptr<store::Store> db;
  stream::StreamOutput out;
  uint64_t bytes_after_ingest = 0;
  store::CompactionReport compaction;
  ScanPass pass[2];
  std::vector<SliceRow> slice;
  QueryOutcome q;
  int64_t open_ns = 0;
  int64_t scan_ns[2] = {0, 0};

  const int64_t t0 = NowNs();
  {
    ScopedSpan root(rec, "bench.iteration", index);
    {
      ScopedSpan span(rec, "store.open", index);
      const int64_t o0 = NowNs();
      sidq::StatusOr<std::unique_ptr<store::Store>> opened =
          store::Store::Open(nullptr, run_dir_, store_options);
      open_ns = NowNs() - o0;
      ledger_->Op(opened.status(), "Store::Open");
      if (opened.ok()) db = std::move(*opened);
    }
    if (db != nullptr) {
      out = Ingest(db.get(), rec, &r);
      bytes_after_ingest = TreeBytes(run_dir_);
      {
        ScopedSpan span(rec, "store.compact", index);
        ledger_->Op(db->Compact(&compaction), "Store::Compact");
      }
      for (int p = 0; p < 2; ++p) {
        ScopedSpan span(rec, p == 0 ? "store.scan_pass1" : "store.scan_pass2",
                        index);
        const int64_t s0 = NowNs();
        ledger_->Op(db->Scan(ScanCallback(&pass[p], &r.op_ms,
                                          p == 1 ? &slice : nullptr,
                                          slice_lo_)),
                    "Store::Scan");
        scan_ns[p] = NowNs() - s0;
      }
      std::vector<double> sigma;
      {
        ScopedSpan span(rec, "query.points", index);
        sigma = SigmaBySensor(db->recovery(), vehicles_, gps_sigma_m_);
      }
      q = RunQueryBatch(slice, sigma, gps_sigma_m_, batch_, rec, index);
      ScopedSpan span(rec, "store.close", index);
      ledger_->Op(db->Close(), "Store::Close");
    }
  }
  r.wall_ns = NowNs() - t0;
  r.items = static_cast<double>(pass[0].rows + pass[1].rows);
  r.item_ns = scan_ns[0] + scan_ns[1];
  if (db == nullptr) return r;

  const uint64_t appended = out.cleaned.TotalRecords();
  const uint64_t bytes_written = bytes_after_ingest - bytes_before;
  const store::RecoveryReport& recovery = db->recovery();
  const store::BlockCache::Stats cache = db->cache_stats();
  r.layer["store.bytes_written"] = static_cast<double>(bytes_written);
  r.layer["store.bytes_per_row"] =
      appended == 0 ? 0.0
                    : static_cast<double>(bytes_written) /
                          static_cast<double>(appended);
  r.layer["store.open_s"] = NsToS(open_ns);
  r.layer["store.scan_s"] = NsToS(scan_ns[0] + scan_ns[1]);
  r.layer["store.blocks_verified"] = static_cast<double>(recovery.blocks_verified);
  r.layer["store.blocks_quarantined"] =
      static_cast<double>(recovery.quarantined.size());
  r.layer["store.rows_lost"] = static_cast<double>(recovery.rows_lost);
  r.layer["store.compact_bytes_reclaimed"] =
      static_cast<double>(compaction.bytes_reclaimed);
  r.layer["store.cache.hits"] = static_cast<double>(cache.hits);
  r.layer["store.cache.misses"] = static_cast<double>(cache.misses);
  r.layer["store.cache.hit_ratio"] =
      cache.hits + cache.misses == 0
          ? 0.0
          : static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses);
  r.layer["store.cache.evictions"] = static_cast<double>(cache.evictions);
  r.layer["store.cache.resident_mb"] =
      static_cast<double>(cache.resident_bytes) / (1024.0 * 1024.0);
  AddQueryLayer(q, &r.layer);
  FinishQueryLayer(&r.layer);

  // Gates on this iteration's outcome (untimed). The scans serve the
  // recovered rows, then the rows this iteration appended.
  if (cleaned_digests_.empty()) first_output_checksum_ = stream::OutputChecksum(out);
  Fnv64 cleaned;
  Fnv64 expected(readable_digest_);
  for (const sidq::StSeries& s : out.cleaned.series()) {
    for (const StRecord& rec_row : s.records()) {
      cleaned.AddRecord(rec_row);
      expected.AddRecord(rec_row);
    }
  }
  cleaned_digests_.push_back(cleaned.value());
  uint64_t corrupt_rows = 0;
  for (const CorruptBlock& c : corrupt_) corrupt_rows += c.row_count;
  ledger_->Gate(SameBlocks(recovery.quarantined, corrupt_),
                "quarantined blocks == corrupted blocks");
  ledger_->Gate(recovery.rows_lost == corrupt_rows,
                "rows_lost == rows in corrupted blocks");
  for (const ScanPass& p : pass) {
    ledger_->Gate(p.rows == rows_ - recovery.rows_lost + appended,
                  "readable rows == appended - rows_lost");
    ledger_->GateEqual(p.digest.value(), expected.value(),
                       "scan digest == rows outside corrupted blocks + "
                       "cleaned rows");
  }
  ledger_->Gate(compaction.blocks_dropped == corrupt_.size(),
                "Compact dropped every quarantined block");
  ledger_->Gate(!slice.empty() && q.objects == slice.size(),
                "query batch ran over the last time slice");
  db.reset();
  RemoveTree(run_dir_);
  return r;
}

void ColdScan::Gates() {
  ledger_->Gate(!cleaned_digests_.empty(), "cold_scan ran an iteration");
  if (cleaned_digests_.empty()) return;
  // Stream == batch: the online engine's output is bit-identical to the
  // batch reference over the same log, and to itself across iterations.
  ledger_->GateEqual(first_output_checksum_,
                     stream::OutputChecksum(stream::BatchReference(log_, config_)),
                     "OutputChecksum(stream) == OutputChecksum(BatchReference)");
  for (const uint64_t d : cleaned_digests_) {
    ledger_->GateEqual(d, cleaned_digests_[0],
                       "cleaned rows identical across iterations");
  }

  // Before compaction and ingest: a plain recovery of the corrupted store
  // serves exactly the rows outside the corrupted blocks.
  const std::string dir = options_.work_dir + "/cold-gate";
  ledger_->Gate(LinkTree(pristine_dir_, dir), "link pristine store");
  sidq::StatusOr<std::unique_ptr<store::Store>> db =
      store::Store::Open(nullptr, dir, Options());
  ledger_->Op(db.status(), "gate Store::Open");
  if (db.ok()) {
    ScanPass pass;
    std::vector<double> unused_gaps;
    ledger_->Op((*db)->Scan(ScanCallback(&pass, &unused_gaps, nullptr, 0)),
                "gate Store::Scan");
    ledger_->GateEqual(pass.digest.value(), readable_digest_,
                       "scan digest before Compact == after Compact");
    db->reset();
  }
  RemoveTree(dir);
}

}  // namespace

std::unique_ptr<Workload> MakeColdScan(const RunOptions& options,
                                       Ledger* ledger) {
  return std::make_unique<ColdScan>(options, ledger);
}

}  // namespace perfbench
