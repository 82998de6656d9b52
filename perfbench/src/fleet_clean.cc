// fleet_clean: offline cleaning of a degraded vehicle fleet on the exec
// pool, then similarity ranking of the cleaned fleet. Timed: FleetRunner
// at 2 workers with skew-aware sharding and no deadline runs the pipeline
// of examples/fleet_cleaning.cpp (HMM map matching with a nearest-road
// fallback rung -> road-aware gap completion -> Douglas-Peucker SED), then
// every cleaned trajectory is scored against a few probe routes by DTW and
// discrete Frechet distance. With no deadline the fallback rung is never
// taken for lack of time, so the work does not depend on machine speed.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "core/pipeline.h"
#include "core/random.h"
#include "exec/fleet_runner.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "query/similarity.h"
#include "reduce/simplify.h"
#include "refine/hmm_map_matcher.h"
#include "sim/noise.h"
#include "sim/trajectory_sim.h"
#include "uncertainty/completion.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sidq::StatusOr;
using sidq::Trajectory;
namespace exec = sidq::exec;
namespace obs = sidq::obs;
namespace query = sidq::query;
namespace sim = sidq::sim;

constexpr int kGrid = 16;
constexpr double kSpacing = 180.0;
constexpr int kVehicles = 2000;
constexpr size_t kMinHops = 24;
constexpr double kGpsSigmaM = 14.0;
constexpr sidq::Timestamp kResampleMs = 5000;
constexpr int kWorkers = 2;
// Each probe scores every cleaned trajectory twice (DTW, Frechet); two
// probes keep ranking below the cleaning itself in the timed wall.
constexpr size_t kProbeRoutes = 2;
// Trajectories re-cleaned serially by the gate.
constexpr size_t kSerialSample = 16;

enum Stage { kMapMatch = 0, kComplete = 1, kSimplify = 2, kStages = 3 };
constexpr const char* kStageSpan[kStages] = {
    "refine.map_match", "uncertainty.complete", "reduce.simplify"};

uint64_t TrajectoryDigest(const Trajectory& t) {
  Fnv64 h;
  h.AddU64(t.object_id());
  for (const sidq::TrajectoryPoint& p : t.points()) {
    h.AddU64(static_cast<uint64_t>(p.t));
    h.AddF64(p.p.x);
    h.AddF64(p.p.y);
    h.AddF64(p.accuracy);
  }
  return h.value();
}

class FleetClean final : public Workload {
 public:
  FleetClean(const RunOptions& options, Ledger* ledger)
      : options_(options), ledger_(ledger) {
    sinks_.metrics = &registry_;
  }

  uint64_t Setup() override;
  IterationResult Iterate(uint64_t index, SpanRecorder* rec) override;
  void Gates() override;

  double tail_q() const override { return 0.99; }
  const char* op_name() const override {
    return "one trajectory through map_match + complete + simplify";
  }
  const char* item_name() const override { return "trajectories"; }

  void Describe(JsonObject* record) const override {
    record->Int("vehicles", kVehicles)
        .Int("road_grid", kGrid)
        .Num("gps_sigma_m", kGpsSigmaM)
        .Int("resample_ms", kResampleMs)
        .Int("input_points", static_cast<int64_t>(input_points_))
        .Int("workers", workers())
        .Str("sharding", "skew_aware")
        .Int("probe_routes", kProbeRoutes);
  }

 private:
  static int workers() {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(kWorkers, hw));
  }

  // Times one stage call of one trajectory into the per-trajectory slots
  // and, when traced, records it as a span under the running exec.run span.
  class StageClock {
   public:
    StageClock(FleetClean* self, Stage stage, sidq::ObjectId id)
        : self_(self), stage_(stage), id_(id), start_(NowNs()) {}
    ~StageClock() {
      const int64_t end = NowNs();
      if (id_ < self_->stage_ns_[stage_].size()) {
        self_->stage_ns_[stage_][id_] += end - start_;
      }
      if (self_->rec_ != nullptr) {
        Span s;
        s.name = kStageSpan[stage_];
        s.start_ns = start_;
        s.end_ns = end;
        s.id = self_->rec_->NextId();
        s.parent = self_->run_span_;
        s.request = id_;
        self_->rec_->Record(s);
      }
    }
    StageClock(const StageClock&) = delete;
    StageClock& operator=(const StageClock&) = delete;

   private:
    FleetClean* self_;
    Stage stage_;
    sidq::ObjectId id_;
    int64_t start_;
  };

  void BuildPipeline();

  RunOptions options_;
  Ledger* ledger_;
  obs::MetricsRegistry registry_;
  obs::ObsSinks sinks_;

  sim::Fleet fleet_;
  std::vector<Trajectory> observed_;
  std::vector<size_t> probes_;  // indices of ground-truth probe routes
  size_t input_points_ = 0;
  uint64_t base_seed_ = 0;
  sidq::TrajectoryPipeline pipeline_;

  // Written by the stage lambdas on the workers. Each slot belongs to one
  // trajectory, and one trajectory runs on one worker at a time.
  std::vector<int64_t> stage_ns_[kStages];
  SpanRecorder* rec_ = nullptr;
  uint64_t run_span_ = 0;

  std::vector<uint64_t> cleaned_digests_;  // last iteration, by index
  std::vector<uint64_t> first_digests_;    // first iteration, by index
};

uint64_t FleetClean::Setup() {
  sidq::Rng rng(sidq::DeriveSeed(options_.seed, 0xF1EE7));
  fleet_ = sim::MakeFleet(kGrid, kGrid, kSpacing, kVehicles, kMinHops, &rng);
  base_seed_ = sidq::DeriveSeed(options_.seed, 0xDE6EAD);
  observed_.clear();
  input_points_ = 0;
  Fnv64 digest;
  for (const Trajectory& truth : fleet_.trajectories) {
    sidq::Rng vehicle = sidq::Rng::ForKey(base_seed_, truth.object_id());
    observed_.push_back(sim::Resample(
        sim::AddGpsNoise(truth, kGpsSigmaM, &vehicle), kResampleMs));
    input_points_ += observed_.back().size();
    digest.AddU64(TrajectoryDigest(observed_.back()));
  }
  bool dense_ids = true;
  for (size_t i = 0; i < observed_.size(); ++i) {
    dense_ids = dense_ids && observed_[i].object_id() == i;
  }
  ledger_->Gate(dense_ids, "fleet object ids are 0..n-1");
  probes_.clear();
  for (size_t i = 0; i < kProbeRoutes; ++i) {
    probes_.push_back(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fleet_.trajectories.size()) - 1)));
  }
  BuildPipeline();
  return digest.value();
}

void FleetClean::BuildPipeline() {
  const sim::RoadNetwork* network = &fleet_.network;
  pipeline_ = sidq::TrajectoryPipeline();
  auto map_match = std::make_unique<sidq::LadderStage>("map_match");
  map_match->AddRungCtx(
      "hmm_viterbi",
      [this, network](const Trajectory& in,
                      const sidq::StageContext& ctx) -> StatusOr<Trajectory> {
        StageClock clock(this, kMapMatch, in.object_id());
        // HmmMapMatcher caches Dijkstra results per instance and is not
        // safe to share across workers: one matcher per call.
        const sidq::refine::HmmMapMatcher matcher(network);
        SIDQ_ASSIGN_OR_RETURN(auto match, matcher.Match(in, ctx.exec));
        return match.matched;
      });
  map_match->AddRung(
      "nearest_road_snap",
      [this, network](const Trajectory& in) -> StatusOr<Trajectory> {
        StageClock clock(this, kMapMatch, in.object_id());
        Trajectory out(in.object_id());
        for (const sidq::TrajectoryPoint& pt : in.points()) {
          SIDQ_ASSIGN_OR_RETURN(sidq::EdgeId e, network->NearestEdge(pt.p));
          sidq::TrajectoryPoint snapped = pt;
          snapped.p = network->ProjectToEdge(e, pt.p);
          out.AppendUnordered(snapped);
        }
        return out;
      });
  pipeline_.Add(std::move(map_match));
  pipeline_.Add("complete",
                [this, network](const Trajectory& in) -> StatusOr<Trajectory> {
                  StageClock clock(this, kComplete, in.object_id());
                  return sidq::uncertainty::RoadCompleter(network).Complete(in);
                });
  pipeline_.Add("simplify", [this](const Trajectory& in) -> StatusOr<Trajectory> {
    StageClock clock(this, kSimplify, in.object_id());
    return sidq::reduce::DouglasPeuckerSed(in, 2.0);
  });
}

IterationResult FleetClean::Iterate(uint64_t index, SpanRecorder* rec) {
  IterationResult r;
  for (auto& slots : stage_ns_) slots.assign(observed_.size(), 0);
  exec::FleetRunner::Options runner_options;
  runner_options.num_threads = workers();
  runner_options.sharding = exec::ShardingMode::kSkewAware;
  runner_options.base_seed = base_seed_;
  runner_options.obs = &sinks_;
  const exec::FleetRunner runner(&pipeline_, runner_options);

  exec::FleetResult result;
  int64_t run_ns = 0;
  size_t pairs = 0;
  bool dtw_bounds_frechet = true;
  rec_ = rec;
  const int64_t t0 = NowNs();
  {
    ScopedSpan root(rec, "bench.iteration", index);
    {
      ScopedSpan span(rec, "exec.run", index);
      run_span_ = span.id();
      const int64_t r0 = NowNs();
      result = runner.Run(observed_);
      run_ns = NowNs() - r0;
    }
    ScopedSpan span(rec, "query.similarity", index);
    for (const size_t p : probes_) {
      const Trajectory& probe = fleet_.trajectories[p];
      std::vector<std::pair<double, size_t>> ranking;
      ranking.reserve(result.cleaned.size());
      for (size_t i = 0; i < result.cleaned.size(); ++i) {
        if (!result.statuses[i].ok() || result.cleaned[i].empty()) continue;
        const double dtw = query::DtwDistance(probe, result.cleaned[i]);
        const double frechet =
            query::DiscreteFrechetDistance(probe, result.cleaned[i]);
        // DTW sums point distances along its best path, Frechet takes the
        // largest along its own, so DTW can never be below Frechet.
        dtw_bounds_frechet = dtw_bounds_frechet && std::isfinite(dtw) &&
                             std::isfinite(frechet) &&
                             dtw >= frechet * (1.0 - 1e-12);
        ranking.emplace_back(dtw + frechet, i);
        pairs += 2;
      }
      std::sort(ranking.begin(), ranking.end());
    }
  }
  r.wall_ns = NowNs() - t0;
  rec_ = nullptr;
  r.items = static_cast<double>(observed_.size());

  r.op_ms.reserve(observed_.size());
  int64_t busy_ns = 0;
  for (size_t i = 0; i < observed_.size(); ++i) {
    int64_t ns = 0;
    for (const auto& slots : stage_ns_) ns += slots[i];
    r.op_ms.push_back(NsToMs(ns));
    busy_ns += ns;
  }
  for (int s = 0; s < kStages; ++s) {
    int64_t sum = 0;
    for (const int64_t ns : stage_ns_[s]) sum += ns;
    r.layer[std::string(kStageSpan[s]) + "_s"] = NsToS(sum);
  }
  r.layer["exec.run_s"] = NsToS(run_ns);
  r.layer["exec.utilisation"] =
      run_ns == 0 ? 0.0
                  : static_cast<double>(busy_ns) /
                        (static_cast<double>(run_ns) * workers());
  r.layer["exec.objects_degraded"] = static_cast<double>(result.objects_degraded);
  r.layer["exec.retries_total"] = static_cast<double>(result.retries_total);
  r.layer["exec.objects_quarantined"] =
      static_cast<double>(result.objects_quarantined);
  r.layer["query.similarity_pairs"] = static_cast<double>(pairs);

  // Gates on this iteration's outcome (untimed).
  ledger_->Gate(result.ok(), "FleetRunner::Run ok");
  for (const sidq::Status& st : result.statuses) ledger_->Op(st, "clean trajectory");
  ledger_->Gate(result.objects_degraded == 0, "objects_degraded == 0");
  ledger_->Gate(dtw_bounds_frechet, "DTW >= discrete Frechet for every pair");
  cleaned_digests_.clear();
  for (const Trajectory& t : result.cleaned) {
    cleaned_digests_.push_back(TrajectoryDigest(t));
  }
  if (first_digests_.empty()) {
    first_digests_ = cleaned_digests_;
  } else {
    ledger_->Gate(first_digests_ == cleaned_digests_,
                  "cleaned fleet identical across iterations");
  }
  return r;
}

void FleetClean::Gates() {
  // A seeded sample cleans identically in the serial reference run
  // (TrajectoryPipeline::RunBatch derives the same per-object substreams).
  ledger_->Gate(cleaned_digests_.size() == observed_.size(),
                "fleet_clean ran an iteration");
  if (cleaned_digests_.size() != observed_.size()) return;
  sidq::Rng rng(sidq::DeriveSeed(options_.seed, 0x5E41A1));
  std::vector<size_t> sample;
  std::vector<Trajectory> inputs;
  for (size_t i = 0; i < kSerialSample; ++i) {
    sample.push_back(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(observed_.size()) - 1)));
    inputs.push_back(observed_[sample.back()]);
  }
  for (auto& slots : stage_ns_) slots.assign(observed_.size(), 0);
  StatusOr<std::vector<Trajectory>> serial = pipeline_.RunBatch(inputs, base_seed_);
  ledger_->Op(serial.status(), "TrajectoryPipeline::RunBatch");
  if (!serial.ok()) return;
  for (size_t i = 0; i < sample.size(); ++i) {
    ledger_->GateEqual(TrajectoryDigest((*serial)[i]),
                       cleaned_digests_[sample[i]],
                       "serial run == FleetRunner for a sampled trajectory");
  }
}

}  // namespace

std::unique_ptr<Workload> MakeFleetClean(const RunOptions& options,
                                         Ledger* ledger) {
  return std::make_unique<FleetClean>(options, ledger);
}

}  // namespace perfbench
