// warm_query: quality-aware queries over a store whose decoded blocks all
// fit the default 64 MB cache. Setup opens the store and warms the cache
// with one Scan; each timed request then (1) scans the store keeping a
// seeded random time slice, (2) turns every slice row into a Gaussian
// uncertain point whose sigma grows with the share of its sensor's rows
// recovery lost, (3) answers a fixed number of probabilistic range boxes
// with one batched call and (4) runs expected-distance kNN for a few
// probes. Every block hits the cache and no CRC runs, so query, the packed
// R-tree and the cache hit path do the work.
#include <memory>
#include <string>

#include "datagen.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "quality_query.h"
#include "store/store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sidq::StRecord;
namespace obs = sidq::obs;
namespace query = sidq::query;
namespace store = sidq::store;

constexpr size_t kRows = 1'000'000;
constexpr sidq::Timestamp kSliceMs = 120'000;
constexpr uint64_t kRequestsPerIteration = 20;
// Requests whose batched range answers are re-checked box by box.
constexpr uint64_t kGateEvery = 16;
constexpr size_t kMaxGateSamples = 8;

struct Request {
  sidq::Timestamp lo = 0;
  sidq::Timestamp hi = 0;
  QueryBatch batch;
};

// What a sampled request answered, kept for the gate.
struct Sample {
  Request request;
  std::vector<std::vector<sidq::ObjectId>> range;
  std::vector<query::PruningStats> stats;
};

class WarmQuery final : public Workload {
 public:
  WarmQuery(const RunOptions& options, Ledger* ledger)
      : options_(options),
        ledger_(ledger),
        dir_(options.work_dir + "/warm") {
    sinks_.metrics = &registry_;
  }

  uint64_t Setup() override;
  IterationResult Iterate(uint64_t index, SpanRecorder* rec) override;
  void Gates() override;

  double tail_q() const override { return 0.95; }
  const char* op_name() const override {
    return "one request: time-slice scan + uncertain points + range + kNN";
  }
  const char* item_name() const override { return "requests"; }

  void Describe(JsonObject* record) const override {
    record->Int("rows", static_cast<int64_t>(rows_))
        .Int("vehicles", static_cast<int64_t>(vehicles_))
        .Int("block_records", kBlockRecords)
        .Int("segment_blocks", kSegmentBlocks)
        .Int("corrupted_blocks", static_cast<int64_t>(corrupt_.size()))
        .Int("cache_bytes", store::StoreOptions{}.cache_bytes)
        .Num("cache_resident_mb_after_warmup", resident_mb_)
        .Int("requests_per_iteration", kRequestsPerIteration)
        .Int("query_slice_ms", kSliceMs)
        .Int("query_boxes", kQueryBoxes)
        .Int("knn_probes", kKnnProbes);
  }

 private:
  Request MakeRequest(uint64_t id) const {
    sidq::Rng rng = sidq::Rng::ForKey(options_.seed, id);
    Request req;
    req.lo = rng.UniformInt(t_min_, t_max_ - kSliceMs);
    req.hi = req.lo + kSliceMs;
    req.batch = MakeQueryBatch(&rng, bounds_);
    return req;
  }
  std::vector<SliceRow> ScanSlice(const Request& req) {
    std::vector<SliceRow> rows;
    ledger_->Op(db_->Scan([&rows, &req](uint64_t id, const StRecord& rec) {
      if (rec.t >= req.lo && rec.t < req.hi) rows.push_back({id, rec});
    }),
                "Store::Scan");
    return rows;
  }

  RunOptions options_;
  Ledger* ledger_;
  const std::string dir_;
  obs::MetricsRegistry registry_;
  obs::ObsSinks sinks_;

  std::unique_ptr<store::Store> db_;
  std::vector<CorruptBlock> corrupt_;
  std::vector<double> sigma_;
  sidq::geometry::BBox bounds_;
  sidq::Timestamp t_min_ = 0, t_max_ = 0;
  size_t rows_ = 0;
  size_t vehicles_ = 0;
  double gps_sigma_m_ = 0.0;
  double resident_mb_ = 0.0;
  std::vector<Sample> samples_;
};

uint64_t WarmQuery::Setup() {
  db_.reset();
  MobileRows data = MakeMobileRows(options_.seed, kRows);
  BuildStore(dir_, data.rows, ledger_);
  corrupt_ = CorruptFixedBlocks(dir_, data.rows.size(), ledger_);
  const uint64_t expected = ReadableRowsDigest(data.rows, corrupt_);
  rows_ = data.rows.size();
  vehicles_ = data.vehicles;
  bounds_ = data.bounds;
  t_min_ = data.t_min;
  t_max_ = data.t_max;
  gps_sigma_m_ = data.gps_sigma_m;

  store::StoreOptions store_options;
  store_options.field_name = "mobile";
  store_options.obs = sinks_;
  sidq::StatusOr<std::unique_ptr<store::Store>> db =
      store::Store::Open(nullptr, dir_, store_options);
  ledger_->Op(db.status(), "setup Store::Open");
  if (!db.ok()) return 0;
  db_ = std::move(*db);
  sigma_ = SigmaBySensor(db_->recovery(), vehicles_, gps_sigma_m_);

  // Warm-up scan: fills the cache and checks what the store serves.
  Fnv64 digest;
  uint64_t scanned = 0;
  ledger_->Op(db_->Scan([&](uint64_t, const StRecord& rec) {
    digest.AddRecord(rec);
    ++scanned;
  }),
              "setup Store::Scan");
  ledger_->Gate(scanned == rows_ - db_->recovery().rows_lost,
                "readable rows == appended - rows_lost");
  ledger_->GateEqual(digest.value(), expected,
                     "warm-up scan digest == appended rows outside corrupted "
                     "blocks");
  ledger_->Gate(db_->recovery().quarantined.size() == corrupt_.size(),
                "quarantined blocks == corrupted blocks");
  resident_mb_ =
      static_cast<double>(db_->cache_stats().resident_bytes) / (1024.0 * 1024.0);
  return RowsDigest(data.rows);
}

IterationResult WarmQuery::Iterate(uint64_t index, SpanRecorder* rec) {
  IterationResult r;
  if (db_ == nullptr) return r;
  const store::BlockCache::Stats before = db_->cache_stats();
  r.op_ms.reserve(kRequestsPerIteration);

  const int64_t t0 = NowNs();
  {
    ScopedSpan root(rec, "bench.iteration", index);
    for (uint64_t k = 0; k < kRequestsPerIteration; ++k) {
      const uint64_t id = index * kRequestsPerIteration + k;
      const Request req = MakeRequest(id);
      const int64_t q0 = NowNs();
      std::vector<SliceRow> rows;
      {
        ScopedSpan span(rec, "store.scan", id);
        rows = ScanSlice(req);
      }
      QueryOutcome q = RunQueryBatch(rows, sigma_, gps_sigma_m_, req.batch,
                                     rec, id);
      r.op_ms.push_back(NsToMs(NowNs() - q0));
      AddQueryLayer(q, &r.layer);
      if (sidq::DeriveSeed(options_.seed, id) % kGateEvery == 0 &&
          samples_.size() < kMaxGateSamples) {
        samples_.push_back({req, std::move(q.range), std::move(q.range_stats)});
      }
    }
  }
  r.wall_ns = NowNs() - t0;
  r.items = static_cast<double>(kRequestsPerIteration);
  FinishQueryLayer(&r.layer);

  const store::BlockCache::Stats after = db_->cache_stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  r.layer["store.cache.hits"] = hits;
  r.layer["store.cache.misses"] = misses;
  r.layer["store.cache.hit_ratio"] =
      hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
  r.layer["store.cache.evictions"] =
      static_cast<double>(after.evictions - before.evictions);
  r.layer["store.cache.resident_mb"] =
      static_cast<double>(after.resident_bytes) / (1024.0 * 1024.0);
  r.layer["store.blocks_verified"] =
      static_cast<double>(db_->recovery().blocks_verified);
  r.layer["store.blocks_quarantined"] =
      static_cast<double>(db_->recovery().quarantined.size());
  r.layer["store.rows_lost"] = static_cast<double>(db_->recovery().rows_lost);
  return r;
}

void WarmQuery::Gates() {
  ledger_->Gate(!samples_.empty(), "at least one request sampled for the gate");
  for (const Sample& s : samples_) {
    const std::vector<query::UncertainPoint> objects = MakeUncertainPoints(
        ScanSlice(s.request), sigma_, gps_sigma_m_);
    const auto& boxes = s.request.batch.boxes;
    bool same = s.range.size() == boxes.size() && s.stats.size() == boxes.size();
    for (size_t b = 0; same && b < boxes.size(); ++b) {
      query::PruningStats stats;
      const std::vector<sidq::ObjectId> ids =
          query::ProbabilisticRangeQuery(objects, boxes[b], kRangeTau, &stats);
      same = ids == s.range[b] &&
             stats.total_objects == s.stats[b].total_objects &&
             stats.pruned_out == s.stats[b].pruned_out &&
             stats.accepted_cheap == s.stats[b].accepted_cheap &&
             stats.evaluated_exact == s.stats[b].evaluated_exact;
    }
    ledger_->Gate(same,
                  "ProbabilisticRangeQueryMany == ProbabilisticRangeQuery per "
                  "box");
  }
  db_.reset();
  RemoveTree(dir_);
}

}  // namespace

std::unique_ptr<Workload> MakeWarmQuery(const RunOptions& options,
                                        Ledger* ledger) {
  return std::make_unique<WarmQuery>(options, ledger);
}

}  // namespace perfbench
