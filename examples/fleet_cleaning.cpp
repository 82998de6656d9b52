// Fleet telematics end-to-end, now executed by the parallel fleet engine:
// raw GPS from many vehicles is degraded per-vehicle (seeded substreams),
// then cleaned by a TrajectoryPipeline -- HMM map matching (Location
// Refinement), road-constrained gap completion (Uncertainty Elimination),
// DP-SED simplification (Data Reduction) -- run over the whole fleet by
// exec::FleetRunner on the shared-queue pool. A dispatcher's continuous
// range query consumes the cleaned streams (Exploitation).
//
//   fleet_cleaning [--threads N]       (default 0 = all hardware threads)
//                  [--deadline-ms D]   per-vehicle cleaning budget
//                  [--max-retries R]   retries for transient stage failures
//                  [--best-effort]     quarantine failing vehicles instead of
//                                      cancelling the fleet
//                  [--metrics-out F]   write the run's metrics snapshot to F
//                                      (canonical JSON)
//                  [--trace-out F]     write the run's span trace to F
//                                      (Chrome trace_event JSON -- load it
//                                      in chrome://tracing or Perfetto)
//                  [--record-log F]    record a seeded dirty sensor fleet as
//                                      an arrival-ordered event log to F and
//                                      exit (deterministic: same bytes every
//                                      run)
//                  [--replay F]        replay event log F through the stream
//                                      engine (--threads workers), check it
//                                      against the batch reference, print a
//                                      summary; exit 1 on any divergence
//                  [--stream-out F2]   with --replay: write the canonical
//                                      stream-output JSON to F2
//                  [--store-dir D]     with --replay: persist the cleaned
//                                      stream records into the durable
//                                      segment store at D (recovery runs on
//                                      open; appends are committed before
//                                      exit)
//                  [--store-scan F]    with --store-dir: open the store
//                                      (running crash recovery), print the
//                                      recovery report, and write every
//                                      readable row as a canonical text
//                                      dump to F; exit
//                  [--cache-mb N]      block-cache byte budget for store
//                                      modes (decoded blocks held during
//                                      scans; 0 = unbounded; default 64).
//                                      Peak scan RSS is bounded by this,
//                                      not by the store size
//                  [--compact]         with --store-dir: run one
//                                      deterministic compaction pass
//                                      (rewrites quarantine-pocked rolled
//                                      segments, tombstoning dead blocks),
//                                      print the report, and exit
//
// The determinism contract means --threads changes only the wall clock:
// every vehicle's cleaned trajectory is bit-identical for any N. Map
// matching is a degradation ladder: when the HMM Viterbi rung misses the
// deadline, the vehicle falls to a geometric nearest-road snap and the
// result is annotated degraded rather than lost.
//
// --metrics-out / --trace-out switch the run to virtual time so the
// exported files are themselves deterministic: two invocations with the
// same flags produce byte-identical JSON, for any --threads value. The
// same contract covers --record-log / --replay: the recorded log is a pure
// function of the seed, and the replayed stream output is a pure function
// of (log, rules) for any worker count.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/quality.h"
#include "core/random.h"
#include "core/vfs.h"
#include "exec/fleet_runner.h"
#include "geometry/bbox.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "query/continuous.h"
#include "reduce/simplify.h"
#include "refine/hmm_map_matcher.h"
#include "sim/noise.h"
#include "sim/sensor_field.h"
#include "sim/trajectory_sim.h"
#include "stream/engine.h"
#include "stream/event_log.h"
#include "stream/replay.h"
#include "store/store.h"
#include "stream/rules.h"
#include "uncertainty/completion.h"

namespace {

// The streaming companion fleet: stationary air-quality sensors alongside
// the vehicles, with the arrival pathologies the stream engine exists to
// absorb (delay, stragglers past the lateness bound, duplicate delivery).
// Seeded end to end, so the recorded log is byte-identical every run.
sidq::stream::EventLog MakeSensorFleetLog() {
  using namespace sidq;
  Rng rng(4711);
  const geometry::BBox bounds(geometry::Point(0, 0),
                              geometry::Point(2000, 2000));
  const sim::ScalarField field = sim::ScalarField::MakeRandom(
      bounds, 3, 20.0, 30.0, 300.0, 900.0, 3600.0, &rng);
  const std::vector<geometry::Point> sensors =
      sim::DeploySensors(bounds, 16, &rng);
  StDataset truth = sim::SampleField(field, sensors, 0, 60'000, 120, "pm25");
  StDataset dirty = sim::AddValueNoise(truth, 0.8, &rng);
  dirty = sim::AddValueSpikes(dirty, 0.02, 400.0, &rng);

  stream::ArrivalOptions arrivals;
  arrivals.mean_delay_ms = 20'000;
  arrivals.straggler_probability = 0.05;
  arrivals.straggler_delay_ms = 400'000;
  arrivals.duplicate_probability = 0.05;
  return stream::RecordArrivals(dirty, arrivals, &rng);
}

sidq::stream::StreamConfig SensorFleetConfig() {
  sidq::stream::StreamConfig config;
  sidq::stream::SensorRule rule;
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

int RecordLogMode(const std::string& path) {
  using namespace sidq;
  const stream::EventLog log = MakeSensorFleetLog();
  const Status st = stream::WriteEventLogFile(log, path);
  if (!st.ok()) {
    std::fprintf(stderr, "record-log failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("recorded %zu events (field=%s) -> %s\n", log.events.size(),
              log.field_name.c_str(), path.c_str());
  return 0;
}

// Persists the cleaned stream output into the durable segment store at
// `store_dir`. Opening runs crash recovery first, so ingest composes with
// whatever an earlier (possibly interrupted) run left behind; appends are
// committed (data fsync'd, manifest published atomically) before returning.
int IngestIntoStore(const sidq::stream::StreamOutput& streamed,
                    const std::string& field_name,
                    const std::string& store_dir, long cache_mb) {
  using namespace sidq;
  store::StoreOptions options;
  options.field_name = field_name;
  options.cache_bytes = static_cast<size_t>(cache_mb) << 20;
  StatusOr<std::unique_ptr<store::Store>> opened =
      store::Store::Open(nullptr, store_dir, std::move(options));
  if (!opened.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  store::Store& db = **opened;
  std::printf("  store %s: %s\n", store_dir.c_str(),
              db.recovery().Summary().c_str());
  uint64_t appended = 0;
  for (const StSeries& s : streamed.cleaned.series()) {
    for (const StRecord& rec : s.records()) {
      const Status st = db.Append(rec);
      if (!st.ok()) {
        std::fprintf(stderr, "store append failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      ++appended;
    }
  }
  const Status st = db.Close();
  if (!st.ok()) {
    std::fprintf(stderr, "store commit failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("  store ingest: %llu rows appended -> gen %llu "
              "(%llu rows readable)\n",
              static_cast<unsigned long long>(appended),
              static_cast<unsigned long long>(db.manifest_gen()),
              static_cast<unsigned long long>(db.rows_readable()));
  return 0;
}

// Opens the store (recovery runs unconditionally), reports what recovery
// found, and dumps every readable row as canonical text -- the same
// FormatDouble the JSON exporters use, so two scans of equal stores are
// byte-identical and `cmp` is a valid gate.
int StoreScanMode(const std::string& store_dir, const std::string& out,
                  long cache_mb) {
  using namespace sidq;
  store::StoreOptions options;
  options.cache_bytes = static_cast<size_t>(cache_mb) << 20;
  StatusOr<std::unique_ptr<store::Store>> opened =
      store::Store::Open(nullptr, store_dir, std::move(options));
  if (!opened.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  store::Store& db = **opened;
  const store::RecoveryReport& r = db.recovery();
  std::printf("store %s: gen %llu, %s\n", store_dir.c_str(),
              static_cast<unsigned long long>(db.manifest_gen()),
              r.Summary().c_str());
  QuarantineLedger ledger;
  db.AppendQuarantineTo(&ledger);
  for (const auto& [reason, count] : ledger.CountsByReason()) {
    std::printf("  quarantine %-18s %lld\n", reason.c_str(),
                static_cast<long long>(count));
  }

  std::string dump;
  uint64_t rows = 0;
  const Status scan = db.Scan([&](uint64_t row, const StRecord& rec) {
    dump += std::to_string(row);
    dump += ' ';
    dump += std::to_string(rec.sensor);
    dump += ' ';
    dump += std::to_string(rec.t);
    dump += ' ';
    dump += obs::internal_json::FormatDouble(rec.loc.x);
    dump += ' ';
    dump += obs::internal_json::FormatDouble(rec.loc.y);
    dump += ' ';
    dump += obs::internal_json::FormatDouble(rec.value);
    dump += ' ';
    dump += obs::internal_json::FormatDouble(rec.stddev);
    dump += '\n';
    ++rows;
  });
  if (!scan.ok()) {
    std::fprintf(stderr, "store scan failed: %s\n", scan.ToString().c_str());
    return 1;
  }
  std::string text = "# sidq-store-scan v1 field=" + db.field_name() +
                     " rows=" + std::to_string(rows) + "\n";
  text += dump;
  const Status st = AtomicWriteFile(DefaultVfs(), out, text);
  if (!st.ok()) {
    std::fprintf(stderr, "store scan write failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const store::BlockCache::Stats cache = db.cache_stats();
  std::printf("  %llu readable rows -> %s (cache: %llu hits, %llu misses, "
              "%llu resident bytes)\n",
              static_cast<unsigned long long>(rows), out.c_str(),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.resident_bytes));
  return 0;
}

// One deterministic maintenance pass: rewrites every rolled segment that
// holds quarantined bytes (dropping the dead blocks, tombstoning their
// verdicts so row-id gaps and loss accounting survive) and commits the
// result as a new manifest generation. Safe to interrupt: recovery serves
// either the pre- or the post-compaction generation, never a blend.
int CompactMode(const std::string& store_dir, long cache_mb) {
  using namespace sidq;
  store::StoreOptions options;
  options.cache_bytes = static_cast<size_t>(cache_mb) << 20;
  StatusOr<std::unique_ptr<store::Store>> opened =
      store::Store::Open(nullptr, store_dir, std::move(options));
  if (!opened.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  store::Store& db = **opened;
  std::printf("store %s: gen %llu, %s\n", store_dir.c_str(),
              static_cast<unsigned long long>(db.manifest_gen()),
              db.recovery().Summary().c_str());
  store::CompactionReport report;
  Status st = db.Compact(&report);
  if (!st.ok()) {
    std::fprintf(stderr, "compaction failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = db.Close();
  if (!st.ok()) {
    std::fprintf(stderr, "store close failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (report.segments_compacted == 0) {
    std::printf("  nothing to compact: no rolled segment holds quarantined "
                "bytes\n");
  } else {
    std::printf("  compacted %u segment(s): %llu live blocks rewritten, "
                "%llu dead blocks tombstoned, %llu bytes reclaimed "
                "-> gen %llu\n",
                report.segments_compacted,
                static_cast<unsigned long long>(report.blocks_rewritten),
                static_cast<unsigned long long>(report.blocks_dropped),
                static_cast<unsigned long long>(report.bytes_reclaimed),
                static_cast<unsigned long long>(report.manifest_gen));
  }
  return 0;
}

int ReplayMode(const std::string& path, const std::string& stream_out,
               const std::string& store_dir, int threads, long cache_mb) {
  using namespace sidq;
  const StatusOr<stream::EventLog> log = stream::ReadEventLogFile(path);
  if (!log.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 log.status().ToString().c_str());
    return 1;
  }
  const stream::StreamConfig config = SensorFleetConfig();

  stream::ReplayOptions options;
  options.num_threads = threads;
  const StatusOr<stream::StreamOutput> streamed =
      stream::Replay(*log, config, options);
  if (!streamed.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 streamed.status().ToString().c_str());
    return 1;
  }

  // The differential gate: the incremental engine must agree with the
  // order-insensitive batch reference bit for bit.
  const stream::StreamOutput batch = stream::BatchReference(*log, config);
  const std::string stream_json = stream::StreamOutputToJson(*streamed);
  if (stream_json != stream::StreamOutputToJson(batch)) {
    std::fprintf(stderr,
                 "REPLAY DIVERGENCE: stream output differs from the batch "
                 "reference (threads=%d)\n",
                 threads);
    return 1;
  }

  std::printf("replayed %zu events through %d worker(s): stream == batch "
              "(checksum %llu)\n",
              log->events.size(), threads,
              static_cast<unsigned long long>(
                  stream::OutputChecksum(*streamed)));
  size_t cleaned = 0;
  for (const StSeries& s : streamed->cleaned.series()) cleaned += s.size();
  std::printf("  cleaned records: %zu, quarantined: %zu, windows: %zu, "
              "alerts: %zu\n",
              cleaned, streamed->ledger.size(), streamed->kpis.size(),
              streamed->alerts.size());
  for (const auto& [reason, count] : streamed->ledger.CountsByReason()) {
    std::printf("    quarantine %-15s %lld\n", reason.c_str(),
                static_cast<long long>(count));
  }

  if (!stream_out.empty()) {
    const Status st = AtomicWriteFile(DefaultVfs(), stream_out, stream_json);
    if (!st.ok()) {
      std::fprintf(stderr, "stream-out write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("  stream output -> %s\n", stream_out.c_str());
  }
  if (!store_dir.empty()) {
    return IngestIntoStore(*streamed, log->field_name, store_dir, cache_mb);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sidq;

  int threads = 0;
  long deadline_ms = -1;
  int max_retries = 0;
  bool best_effort = false;
  std::string metrics_out;
  std::string trace_out;
  std::string record_log;
  std::string replay_log;
  std::string stream_out;
  std::string store_dir;
  std::string store_scan;
  long cache_mb = 64;
  bool compact = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-retries") == 0 && i + 1 < argc) {
      max_retries = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--best-effort") == 0) {
      best_effort = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--record-log") == 0 && i + 1 < argc) {
      record_log = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_log = argv[++i];
    } else if (std::strcmp(argv[i], "--stream-out") == 0 && i + 1 < argc) {
      stream_out = argv[++i];
    } else if (std::strcmp(argv[i], "--store-dir") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--store-scan") == 0 && i + 1 < argc) {
      store_scan = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      cache_mb = std::atol(argv[++i]);
      if (cache_mb < 0) {
        std::fprintf(stderr, "--cache-mb must be >= 0 (0 = unbounded)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--compact") == 0) {
      compact = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--deadline-ms D] "
                   "[--max-retries R] [--best-effort] "
                   "[--metrics-out FILE] [--trace-out FILE] "
                   "[--record-log FILE] "
                   "[--replay FILE [--stream-out FILE] [--store-dir DIR]] "
                   "[--store-dir DIR --store-scan FILE] "
                   "[--store-dir DIR --compact] [--cache-mb N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!record_log.empty()) return RecordLogMode(record_log);
  if (compact) {
    if (store_dir.empty()) {
      std::fprintf(stderr, "--compact requires --store-dir\n");
      return 2;
    }
    return CompactMode(store_dir, cache_mb);
  }
  if (!store_scan.empty()) {
    if (store_dir.empty()) {
      std::fprintf(stderr, "--store-scan requires --store-dir\n");
      return 2;
    }
    return StoreScanMode(store_dir, store_scan, cache_mb);
  }
  if (!replay_log.empty()) {
    return ReplayMode(replay_log, stream_out, store_dir, threads, cache_mb);
  }
  const bool observed_run = !metrics_out.empty() || !trace_out.empty();

  Rng rng(7);
  const int kVehicles = 24;
  const uint64_t kDegradeSeed = 99;
  sim::Fleet fleet = sim::MakeFleet(12, 12, 180.0, kVehicles, 24, &rng);
  std::printf("fleet_cleaning: %d vehicles on a %zu-edge road network, "
              "--threads %d\n\n",
              kVehicles, fleet.network.num_edges(), threads);

  // Degrade: GPS noise plus sparse reporting to save battery. Each vehicle
  // degrades under its own substream so the input fleet is reproducible
  // regardless of iteration or thread count.
  std::vector<Trajectory> observed;
  observed.reserve(fleet.trajectories.size());
  for (const Trajectory& truth : fleet.trajectories) {
    Rng vehicle_rng = Rng::ForKey(kDegradeSeed, truth.object_id());
    observed.push_back(
        sim::Resample(sim::AddGpsNoise(truth, 14.0, &vehicle_rng), 5000));
  }

  // The cleaning pipeline. Stages are shared read-only across workers, so
  // each map-match call builds its own matcher: HmmMapMatcher keeps a
  // per-instance Dijkstra cache that is not safe to share between threads.
  const sim::RoadNetwork* network = &fleet.network;
  TrajectoryPipeline pipeline;
  // Map matching is a degradation ladder: the HMM Viterbi rung observes the
  // per-vehicle deadline; a vehicle whose budget runs out falls to a cheap
  // geometric nearest-road snap instead of failing the fleet.
  auto map_match = std::make_unique<LadderStage>("map_match");
  map_match->AddRungCtx(
      "hmm_viterbi",
      [network](const Trajectory& in,
                const StageContext& ctx) -> StatusOr<Trajectory> {
        refine::HmmMapMatcher matcher(network);
        SIDQ_ASSIGN_OR_RETURN(auto match, matcher.Match(in, ctx.exec));
        return match.matched;
      });
  map_match->AddRung(
      "nearest_road_snap",
      [network](const Trajectory& in) -> StatusOr<Trajectory> {
        Trajectory out(in.object_id());
        for (const TrajectoryPoint& pt : in.points()) {
          SIDQ_ASSIGN_OR_RETURN(EdgeId e, network->NearestEdge(pt.p));
          TrajectoryPoint snapped = pt;
          snapped.p = network->ProjectToEdge(e, pt.p);
          out.AppendUnordered(snapped);
        }
        return out;
      });
  pipeline.Add(std::move(map_match));
  pipeline.Add("complete",
               [network](const Trajectory& in) -> StatusOr<Trajectory> {
                 return uncertainty::RoadCompleter(network).Complete(in);
               });
  pipeline.Add("simplify", [](const Trajectory& in) -> StatusOr<Trajectory> {
    return reduce::DouglasPeuckerSed(in, 2.0);
  });

  exec::FleetRunner::Options options;
  options.num_threads = threads;
  options.sharding = exec::ShardingMode::kSkewAware;
  options.skew_max_load = 4;
  options.base_seed = kDegradeSeed;
  options.deadline_ms = deadline_ms;
  options.retry.max_retries = max_retries;
  if (best_effort) options.failure_policy = exec::FailurePolicy::kBestEffort;

  // Observability sinks. An observed run switches to virtual time so the
  // exported metrics/trace JSON is a pure function of the inputs --
  // byte-identical across invocations and thread counts.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ObsSinks sinks;
  if (observed_run) {
    sinks.metrics = &registry;
    sinks.tracer = &tracer;
    options.obs = &sinks;
    options.virtual_time = true;
  }
  // Record any chaos faults (none armed here, but the hook is part of the
  // workflow this example demonstrates).
  obs::ScopedFailPointObservation failpoint_observation(sinks);

  const exec::FleetRunner runner(&pipeline, options);

  const auto t0 = std::chrono::steady_clock::now();
  const exec::FleetResult result =
      runner.RunProfiled(observed, &fleet.trajectories, TrajectoryProfiler());
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!result.ok() && !(best_effort && result.partial_ok())) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 result.first_error.ToString().c_str());
    return 1;
  }
  std::printf("cleaned %zu vehicles in %.3f s (%zu shards, skew-aware)\n",
              observed.size(), wall_s, result.shards_total);
  std::printf("%s\n", result.ResilienceSummary().c_str());
  for (const exec::ObjectAnnotation& a : result.annotations) {
    std::printf("  vehicle %llu: %s", static_cast<unsigned long long>(a.id),
                ExecQualityName(a.quality));
    if (a.retries > 0) std::printf(", %d retries", a.retries);
    for (const DegradeEvent& d : a.degraded) {
      std::printf(", %s fell to rung %d (%s): %s", d.stage.c_str(), d.rung,
                  d.rung_name.c_str(), d.cause.ToString().c_str());
    }
    if (!a.status.ok()) std::printf(": %s", a.status.ToString().c_str());
    std::printf("\n");
  }
  std::printf("\n");

  // Fleet-level DQ report: accuracy RMSE per stage, aggregated over the
  // whole fleet (the per-stage mean/p50/p99 merge of every StageReport).
  std::printf("fleet accuracy (m, vs. ground truth)   mean    p50    p99\n");
  for (const exec::FleetStageStats& stats : result.stage_stats) {
    const auto it = stats.metrics.find(DqDimension::kAccuracy);
    if (it == stats.metrics.end()) continue;
    std::printf("  %-36s %6.1f %6.1f %6.1f\n", stats.stage_name.c_str(),
                it->second.mean, it->second.p50, it->second.p99);
  }
  std::printf("\n");

  // Data reduction across the fleet.
  size_t observed_points = 0, cleaned_points = 0;
  for (size_t i = 0; i < observed.size(); ++i) {
    observed_points += observed[i].size();
    cleaned_points += result.cleaned[i].size();
  }
  std::printf("gap completion + simplification\n");
  std::printf("  sparse points:   %zu\n", observed_points);
  std::printf("  cleaned points:  %zu (%.1fx densification after DP-SED)\n\n",
              cleaned_points,
              static_cast<double>(cleaned_points) / observed_points);

  // Exploitation: feed the cleaned streams to the dispatcher's continuous
  // range query with safe regions.
  query::SafeRegionMonitor monitor(
      geometry::BBox(500, 500, 1400, 1400));  // dispatcher watches downtown
  for (size_t i = 0; i < result.cleaned.size(); ++i) {
    for (const auto& pt : result.cleaned[i].points()) {
      monitor.ProcessUpdate(result.cleaned[i].object_id(), pt.p);
    }
  }
  std::printf("continuous range monitoring (safe regions)\n");
  std::printf("  updates: %zu, messages: %zu (%.0f%% saved), %zu vehicles "
              "currently downtown\n",
              monitor.updates_processed(), monitor.messages_sent(),
              100.0 * monitor.MessageSavings(), monitor.inside().size());

  if (!metrics_out.empty()) {
    auto json = obs::MetricsToJson(registry.Snapshot());
    if (!json.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   json.status().ToString().c_str());
      return 1;
    }
    Status st = AtomicWriteFile(DefaultVfs(), metrics_out, json.value());
    if (!st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot -> %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    auto json = obs::TraceToChromeJson(tracer.CanonicalSpans());
    if (!json.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   json.status().ToString().c_str());
      return 1;
    }
    Status st = AtomicWriteFile(DefaultVfs(), trace_out, json.value());
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace (%zu spans, chrome://tracing) -> %s\n",
                tracer.num_spans(), trace_out.c_str());
  }
  return 0;
}
