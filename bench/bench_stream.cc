// BENCH stream: record-at-a-time ingestion engine throughput and replay
// determinism (DESIGN.md "Streaming & watermarks").
//
// Workload: a seeded fleet of sensors sampling a smooth scalar field,
// dirtied with noise, spikes, duplicate deliveries, and stragglers past
// the lateness bound, then recorded as an arrival-ordered event log.
//
//   ingest        serial Push() over the whole log: sustained records/s
//                 plus the per-record latency distribution (p50/p99) --
//                 the figure that decides whether online cleaning keeps up
//                 with a device gateway.
//   window_close  amortized cost of closing a window (sort + online
//                 outlier gate + incremental Kalman + KPI fold), measured
//                 over the engine's own closes.
//   replay        Replay() at 1/2/8 workers vs. the serial engine: the
//                 median rep per worker count, from interleaved rounds
//                 that give every count >= 150 ms of reps.
//
// Every configuration -- serial engine, every worker count, and the batch
// reference -- must agree on OutputChecksum bit-for-bit; any mismatch
// exits 1, so this bench doubles as the stream determinism gate.
// scripts/bench_json.py scrapes the BENCH_JSON line into BENCH_stream.json.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/random.h"
#include "geometry/bbox.h"
#include "sim/sensor_field.h"
#include "stream/engine.h"
#include "stream/event_log.h"
#include "stream/replay.h"
#include "stream/rules.h"

namespace sidq {
namespace {

constexpr uint64_t kSeed = 777;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

stream::EventLog MakeLog(size_t num_sensors, size_t samples_per_sensor) {
  Rng rng(kSeed);
  const geometry::BBox bounds(geometry::Point(0, 0),
                              geometry::Point(8000, 8000));
  const sim::ScalarField field = sim::ScalarField::MakeRandom(
      bounds, 3, 20.0, 30.0, 300.0, 900.0, 3600.0, &rng);
  const std::vector<geometry::Point> sensors =
      sim::DeploySensors(bounds, num_sensors, &rng);
  StDataset truth = sim::SampleField(field, sensors, 0, 60'000,
                                     samples_per_sensor, "pm25");
  StDataset dirty = sim::AddValueNoise(truth, 0.8, &rng);
  dirty = sim::AddValueSpikes(dirty, 0.02, 400.0, &rng);

  stream::ArrivalOptions options;
  options.mean_delay_ms = 20'000;
  options.straggler_probability = 0.05;
  options.straggler_delay_ms = 400'000;
  options.duplicate_probability = 0.05;
  return stream::RecordArrivals(dirty, options, &rng);
}

stream::StreamConfig MakeConfig() {
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

struct IngestStats {
  double seconds = 0.0;
  double records_per_s = 0.0;
  double push_p50_us = 0.0;
  double push_p99_us = 0.0;
  double flush_s = 0.0;
  size_t windows = 0;
  double close_us_per_window = 0.0;
  uint64_t checksum = 0;
};

// One serial engine pass with per-Push latency capture. Best-of-`reps` on
// the aggregate time (per-record latencies come from the fastest rep too:
// noise on a shared box is additive).
IngestStats BenchIngest(const stream::EventLog& log,
                        const stream::StreamConfig& config, int reps) {
  IngestStats best;
  best.seconds = 1e300;
  std::vector<double> latencies_us;
  for (int rep = 0; rep < reps; ++rep) {
    stream::StreamEngine engine(config);
    engine.set_field_name(log.field_name);
    std::vector<double> lat;
    lat.reserve(log.events.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const stream::StreamEvent& ev : log.events) {
      const auto p0 = std::chrono::steady_clock::now();
      const Status st = engine.Push(ev);
      lat.push_back(SecondsSince(p0) * 1e6);
      if (!st.ok()) {
        std::fprintf(stderr, "ingest: Push failed: %s\n",
                     st.ToString().c_str());
        std::exit(1);
      }
    }
    const double ingest_s = SecondsSince(t0);
    const auto f0 = std::chrono::steady_clock::now();
    const Status st = engine.Flush();
    const double flush_s = SecondsSince(f0);
    if (!st.ok()) {
      std::fprintf(stderr, "ingest: Flush failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
    stream::StreamOutput out = engine.TakeOutput();
    if (ingest_s < best.seconds) {
      best.seconds = ingest_s;
      best.flush_s = flush_s;
      best.windows = out.kpis.size();
      best.checksum = stream::OutputChecksum(out);
      latencies_us = std::move(lat);
    }
  }
  best.records_per_s = static_cast<double>(log.events.size()) / best.seconds;
  auto pct = [&latencies_us](double q) {
    const size_t k = static_cast<size_t>(
        q * static_cast<double>(latencies_us.size() - 1));
    std::nth_element(latencies_us.begin(), latencies_us.begin() + k,
                     latencies_us.end());
    return latencies_us[k];
  };
  best.push_p50_us = pct(0.50);
  best.push_p99_us = pct(0.99);
  // Window-close work happens inline in Push (watermark crossings) and in
  // Flush; amortize the whole pass over the closes for an honest per-close
  // figure.
  best.close_us_per_window =
      best.windows == 0
          ? 0.0
          : (best.seconds + best.flush_s) * 1e6 /
                static_cast<double>(best.windows);
  return best;
}

// Replay reps at each worker count run until they cover at least this
// much wall time; each point reports its median rep. One rep of the full
// log takes ~13 ms at 8 workers (4-vCPU Xeon), too short to time alone on
// a shared host.
constexpr double kMinReplaySeconds = 0.15;

struct ReplayPoint {
  int threads = 0;
  double seconds = 0.0;
  double records_per_s = 0.0;
  double speedup = 1.0;
};

}  // namespace
}  // namespace sidq

int main(int argc, char** argv) {
  using namespace sidq;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  bench::Banner("BENCH stream", "record-at-a-time ingestion engine",
                "online cleaning must keep pace with device gateways "
                "(Karkouch et al.): watermarked windows, incremental "
                "Kalman, online outlier gate, deterministic replay");

  const size_t num_sensors = quick ? 16 : 64;
  const size_t samples = quick ? 120 : 400;
  const int reps = quick ? 1 : 3;
  const stream::EventLog log = MakeLog(num_sensors, samples);
  const stream::StreamConfig config = MakeConfig();
  std::printf("log: %zu events from %zu sensors, %u hardware threads%s\n\n",
              log.events.size(), num_sensors,
              std::thread::hardware_concurrency(), quick ? " (--quick)" : "");

  const IngestStats ingest = BenchIngest(log, config, reps);

  bench::Table ingest_table(
      {"metric", "value"});
  ingest_table.AddRow({"ingest seconds", bench::F3(ingest.seconds)});
  ingest_table.AddRow({"records/s", bench::FInt(ingest.records_per_s)});
  ingest_table.AddRow({"Push p50 (us)", bench::F2(ingest.push_p50_us)});
  ingest_table.AddRow({"Push p99 (us)", bench::F2(ingest.push_p99_us)});
  ingest_table.AddRow({"windows closed", std::to_string(ingest.windows)});
  ingest_table.AddRow(
      {"amortized us/window", bench::F1(ingest.close_us_per_window)});
  ingest_table.Print();

  // The batch reference must agree with the serial engine before any
  // parallel claim means anything.
  const uint64_t batch_checksum =
      stream::OutputChecksum(stream::BatchReference(log, config));
  if (batch_checksum != ingest.checksum) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: batch reference differs from the "
                 "serial stream engine\n");
    return 1;
  }

  // Rounds of one rep per worker count, interleaved so that a slow phase
  // of a shared host lands on every worker count alike, until each count's
  // reps cover kMinReplaySeconds.
  const std::vector<int> worker_counts = {1, 2, 8};
  std::vector<std::vector<double>> rep_s(worker_counts.size());
  std::vector<double> total_s(worker_counts.size(), 0.0);
  for (int round = 0;
       round < reps ||
       *std::min_element(total_s.begin(), total_s.end()) < kMinReplaySeconds;
       ++round) {
    for (size_t k = 0; k < worker_counts.size(); ++k) {
      const int threads = worker_counts[k];
      stream::ReplayOptions options;
      options.num_threads = threads;
      const auto t0 = std::chrono::steady_clock::now();
      const StatusOr<stream::StreamOutput> out =
          stream::Replay(log, config, options);
      const double secs = SecondsSince(t0);
      if (!out.ok()) {
        std::fprintf(stderr, "replay: %d threads failed: %s\n", threads,
                     out.status().ToString().c_str());
        return 1;
      }
      if (stream::OutputChecksum(*out) != ingest.checksum) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at %d threads: replay output "
                     "differs from the serial engine\n",
                     threads);
        return 1;
      }
      rep_s[k].push_back(secs);
      total_s[k] += secs;
    }
  }
  std::vector<ReplayPoint> replay;
  double serial_replay_s = 0.0;
  for (size_t k = 0; k < worker_counts.size(); ++k) {
    std::vector<double>& reps_k = rep_s[k];
    const auto mid =
        reps_k.begin() + static_cast<std::ptrdiff_t>(reps_k.size() / 2);
    std::nth_element(reps_k.begin(), mid, reps_k.end());
    const double median_s = *mid;
    if (k == 0) serial_replay_s = median_s;
    replay.push_back({worker_counts[k], median_s,
                      static_cast<double>(log.events.size()) / median_s,
                      serial_replay_s / median_s});
  }

  bench::Table replay_table({"threads", "seconds", "records/s", "speedup"});
  for (const ReplayPoint& p : replay) {
    replay_table.AddRow({std::to_string(p.threads), bench::F3(p.seconds),
                         bench::FInt(p.records_per_s), bench::F2(p.speedup)});
  }
  replay_table.Print();

  std::printf(
      "determinism: serial engine, batch reference, and every replay "
      "worker count agree on checksum %llu\n\n",
      static_cast<unsigned long long>(ingest.checksum));

  // records_per_s is an absolute machine-dependent rate, deliberately NOT
  // named traj_per_s: bench_compare's --ratios-only mode would treat that
  // as host-portable. speedup is a same-machine quotient, so it is.
  std::string replay_json = "[";
  for (size_t i = 0; i < replay.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"threads\":%d,\"seconds\":%.4f,"
                  "\"records_per_s\":%.0f,\"speedup\":%.2f}",
                  i == 0 ? "" : ",", replay[i].threads, replay[i].seconds,
                  replay[i].records_per_s, replay[i].speedup);
    replay_json += buf;
  }
  replay_json += "]";

  std::printf(
      "BENCH_JSON: {\"bench\":\"stream\",\"events\":%zu,\"sensors\":%zu,"
      "\"hardware_threads\":%u,\"determinism\":\"bit-identical\","
      "\"checksum\":\"%llu\","
      "\"ingest\":{\"seconds\":%.4f,\"records_per_s\":%.0f,"
      "\"push_p50_us\":%.2f,\"push_p99_us\":%.2f},"
      "\"window_close\":{\"windows\":%zu,\"close_us_per_window\":%.1f},"
      "\"replay\":%s}\n",
      log.events.size(), num_sensors, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(ingest.checksum), ingest.seconds,
      ingest.records_per_s, ingest.push_p50_us, ingest.push_p99_us,
      ingest.windows, ingest.close_us_per_window, replay_json.c_str());
  return 0;
}
