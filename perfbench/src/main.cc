// sidq_perfbench: runs one benchmark workload and prints its metrics.
//
//   sidq_perfbench --workload <cold_scan|warm_query|fleet_clean>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>] [--record-dir <dir>]
//                  [--commit <id>] [--source-digest <hex>]
//   sidq_perfbench --selftest
//
// The run sets the workload up several times from the seed (reporting the
// median as setup_s and checking the inputs are identical), runs one
// unmeasured warm-up iteration, resets the peak-RSS mark, then repeats
// timed iterations until --seconds have passed, and finally runs the
// workload's correctness gates. The last
// line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run alternates untraced and traced iterations so
// bench.trace_overhead compares the two within one process. The exit code
// is 0 only when every layer call succeeded and every gate held.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "kernels/dispatch.h"
#include "workloads.h"

namespace perfbench {
namespace {

// setup_s is the median of several setups: at least kMinSetups, and more
// (up to kMaxSetups) while they add up to less than kSetupBudgetNs, so a
// cheap setup is sampled often enough for a steady median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr int64_t kSetupBudgetNs = 2'000'000'000;
// Untraced iterations needed for stable medians, and traced ones for the
// breakdown; a run lasts at least this many iterations.
constexpr size_t kMinUntracedIterations = 3;
constexpr size_t kMinTracedIterations = 2;
constexpr double kMinSpanCoverage = 0.95;

// The per-layer metrics every traced run reports, in BENCHMARK.json order.
// Layers a workload does not exercise report 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"stream.push_s", "s"},
    {"stream.push_p99_us", "us"},
    {"stream.flush_s", "s"},
    {"stream.take_output_s", "s"},
    {"stream.events_in", "count"},
    {"stream.rows_cleaned", "count"},
    {"stream.quarantined", "count"},
    {"stream.admit_ratio", "ratio"},
    {"stream.windows_closed", "count"},
    {"store.append_s", "s"},
    {"store.commit_s", "s"},
    {"store.commit_max_ms", "ms"},
    {"store.commits", "count"},
    {"store.close_s", "s"},
    {"store.bytes_written", "B"},
    {"store.bytes_per_row", "B"},
    {"store.open_s", "s"},
    {"store.blocks_verified", "count"},
    {"store.blocks_quarantined", "count"},
    {"store.rows_lost", "count"},
    {"store.compact_s", "s"},
    {"store.compact_bytes_reclaimed", "B"},
    {"store.scan_pass1_s", "s"},
    {"store.scan_pass2_s", "s"},
    {"store.scan_s", "s"},
    {"store.cache.hits", "count"},
    {"store.cache.misses", "count"},
    {"store.cache.hit_ratio", "ratio"},
    {"store.cache.evictions", "count"},
    {"store.cache.resident_mb", "MB"},
    {"query.points_s", "s"},
    {"query.range_s", "s"},
    {"query.knn_s", "s"},
    {"query.objects", "count"},
    {"query.evaluated_exact", "count"},
    {"query.pruned_fraction", "ratio"},
    {"query.results", "count"},
    {"exec.run_s", "s"},
    {"exec.utilisation", "ratio"},
    {"exec.objects_degraded", "count"},
    {"exec.retries_total", "count"},
    {"exec.objects_quarantined", "count"},
    {"refine.map_match_s", "s"},
    {"uncertainty.complete_s", "s"},
    {"reduce.simplify_s", "s"},
    {"query.similarity_s", "s"},
    {"query.similarity_pairs", "count"},
    {"bench.span_coverage", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

struct Args {
  RunOptions run;
  std::string record_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool mutate_gates = false;
  bool selftest = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "sidq_perfbench: %s\n"
               "usage: sidq_perfbench --workload <cold_scan|warm_query|"
               "fleet_clean> --seed <n> --seconds <s> --trace "
               "<0|1> [--work-dir <dir>] [--record-dir <dir>] [--commit "
               "<id>] [--source-digest <hex>]\n"
               "       sidq_perfbench --selftest\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (flag == "--mutate-gates") {
      a.mutate_gates = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.run.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.run.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.run.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.run.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.run.trace = v == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      a.run.work_dir = v;
    } else if (flag == "--record-dir") {
      a.record_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--source-digest") {
      a.source_digest = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.selftest) return a;
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (a.run.work_dir.empty()) a.run.work_dir = ".bench_build/work";
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& o, Ledger* ledger) {
  if (o.workload == "cold_scan") return MakeColdScan(o, ledger);
  if (o.workload == "warm_query") return MakeWarmQuery(o, ledger);
  if (o.workload == "fleet_clean") return MakeFleetClean(o, ledger);
  return nullptr;
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::map<std::string, double> untraced_layer;  // medians, for the report
  size_t op_samples = 0;
  int untraced_iterations = 0;
  int traced_iterations = 0;
  std::vector<double> walls_untraced;  // per iteration, in run order
  std::vector<double> cpu_untraced;    // process CPU seconds, same order
  std::vector<Span> trace;  // first traced iteration
  std::map<std::string, double> self_s;  // span self time by name, traced
};

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Median of every key over a list of per-iteration maps.
std::map<std::string, double> MedianByKey(
    const std::vector<std::map<std::string, double>>& maps) {
  std::map<std::string, std::vector<double>> all;
  for (const auto& m : maps) {
    for (const auto& [k, v] : m) all[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [k, v] : all) out[k] = Median(std::move(v));
  return out;
}

Outcome RunTimed(Workload* w, const RunOptions& o, Ledger* ledger,
                 const std::vector<double>& setup_s) {
  Outcome out;
  std::vector<double>& walls_untraced = out.walls_untraced;
  std::vector<double> walls_traced, rates, ops;
  std::vector<std::map<std::string, double>> layers_untraced, layers_traced;
  std::vector<std::map<std::string, double>> self_traced;
  std::vector<double> coverage;
  SpanRecorder recorder;

  // One warm-up iteration, not measured: lazy state fills, and whatever
  // the machine was doing before this process (another run's file
  // deletions, its freed memory) settles before timing starts.
  w->Iterate(0, nullptr);
  ledger->Gate(ResetPeakRss(), "peak-RSS mark reset before the timed phase");
  const int64_t budget_ns = static_cast<int64_t>(o.seconds * 1e9);
  const int64_t start = NowNs();
  for (uint64_t i = 1;; ++i) {
    const bool enough =
        walls_untraced.size() >= kMinUntracedIterations &&
        (!o.trace || walls_traced.size() >= kMinTracedIterations);
    if (enough && NowNs() - start >= budget_ns) break;
    // Traced runs alternate, starting untraced, so both halves see the
    // same warm state on average.
    const bool trace_this = o.trace && i % 2 == 0;
    recorder.Clear();
    const double cpu0 = ProcessCpuS();
    IterationResult r = w->Iterate(i, trace_this ? &recorder : nullptr);
    const double wall_s = NsToS(r.wall_ns);
    if (!trace_this) {
      out.cpu_untraced.push_back(ProcessCpuS() - cpu0);
      walls_untraced.push_back(wall_s);
      const int64_t base = r.item_ns > 0 ? r.item_ns : r.wall_ns;
      rates.push_back(base > 0 ? r.items / NsToS(base) : 0.0);
      ops.insert(ops.end(), r.op_ms.begin(), r.op_ms.end());
      layers_untraced.push_back(std::move(r.layer));
      continue;
    }
    walls_traced.push_back(wall_s);
    const std::vector<Span> spans = recorder.Collect();
    const std::vector<int64_t> self = SelfTimesNs(spans);
    std::map<std::string, double> span_s, self_s;
    uint64_t root = 0;
    for (size_t k = 0; k < spans.size(); ++k) {
      const std::string name = spans[k].name;
      if (name == "bench.iteration") root = spans[k].id;
      span_s[name + "_s"] += NsToS(spans[k].end_ns - spans[k].start_ns);
      self_s[name] += NsToS(self[k]);
    }
    coverage.push_back(ChildCoverage(spans, root));
    // A value the workload measured directly wins over the span sum.
    for (const auto& [k, v] : span_s) r.layer.emplace(k, v);
    layers_traced.push_back(std::move(r.layer));
    self_traced.push_back(std::move(self_s));
    if (out.trace.empty()) out.trace = spans;
  }
  out.untraced_iterations = static_cast<int>(walls_untraced.size());
  out.traced_iterations = static_cast<int>(walls_traced.size());
  const double peak_rss_mb = PeakRssMb();
  out.op_samples = ops.size();
  out.untraced_layer = MedianByKey(layers_untraced);

  const double tail_q = w->tail_q();
  if (!o.trace) {  // a traced run reports no end-to-end metric
    ledger->Gate(TailSupported(ops.size(), tail_q),
                 "op tail percentile has >= 10 samples beyond it");
  }
  out.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"iteration_s", Median(walls_untraced), "s"},
      {"throughput_per_s", Median(rates), "1/s"},
      {"op_p50_ms", NearestRank(ops, 0.5), "ms"},
      {"op_tail_ms", NearestRank(ops, tail_q), "ms"},
  };

  if (o.trace) {
    std::map<std::string, double> layer = MedianByKey(layers_traced);
    out.self_s = MedianByKey(self_traced);
    const double min_cov =
        coverage.empty() ? 0.0 : *std::min_element(coverage.begin(), coverage.end());
    ledger->Gate(min_cov >= kMinSpanCoverage,
                 "layer spans cover >= 95% of every traced iteration");
    layer["bench.span_coverage"] = Median(coverage);
    layer["bench.trace_overhead"] =
        Median(walls_traced) / std::max(Median(walls_untraced), 1e-12);
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = layer.find(m.name);
      out.per_layer.push_back(
          {m.name, it == layer.end() ? 0.0 : it->second, m.unit});
    }
  }
  return out;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// The end-to-end metrics under the names the workload's own domain uses
// (rows/s for cold_scan, query percentiles for warm_query, ...), derived
// from the generic ones; printed for people, not part of the JSON line.
std::vector<Metric> NamedMetrics(const std::string& workload,
                                 const Outcome& o, double error_rate) {
  auto e2e = [&o](const char* name) {
    for (const Metric& m : o.end_to_end) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  auto layer = [&o](const char* name) {
    const auto it = o.untraced_layer.find(name);
    return it == o.untraced_layer.end() ? 0.0 : it->second;
  };
  std::vector<Metric> m = {
      {"setup_s", e2e("setup_s"), "s"},
      {"peak_rss_mb", e2e("peak_rss_mb"), "MB"},
      {"error_rate", error_rate, "ratio"},
  };
  if (workload == "cold_scan") {
    m.push_back({"cold_total_s", e2e("iteration_s"), "s"});
    m.push_back({"open_ms", layer("store.open_s") * 1e3, "ms"});
    m.push_back({"ingest_events_per_s",
                 layer("stream.events_in") / std::max(layer("ingest_s"), 1e-12),
                 "events/s"});
    m.push_back({"bytes_per_row", layer("store.bytes_per_row"), "B"});
    m.push_back({"scan_rows_per_s", e2e("throughput_per_s"), "rows/s"});
  } else if (workload == "warm_query") {
    m.push_back({"query_p50_ms", e2e("op_p50_ms"), "ms"});
    m.push_back({"query_p95_ms", e2e("op_tail_ms"), "ms"});
  } else if (workload == "fleet_clean") {
    m.push_back(
        {"fleet_trajectories_per_s", e2e("throughput_per_s"), "traj/s"});
  }
  return m;
}

int Run(const Args& a) {
  const RunOptions& o = a.run;
  Ledger ledger(a.mutate_gates);
  std::unique_ptr<Workload> w = MakeWorkload(o, &ledger);
  if (w == nullptr) Usage(("unknown workload " + o.workload).c_str());
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sidq_perfbench: cannot create %s: %s\n",
                 o.work_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const std::string started = UtcNow();
  const int64_t run_start = NowNs();

  std::vector<double> setup_s;
  std::vector<uint64_t> digests;
  for (int64_t total = 0;
       setup_s.size() < kMinSetups ||
       (total < kSetupBudgetNs && setup_s.size() < kMaxSetups);) {
    const int64_t t0 = NowNs();
    digests.push_back(w->Setup());
    total += NowNs() - t0;
    setup_s.push_back(NsToS(NowNs() - t0));
  }
  ledger.Gate(std::all_of(digests.begin(), digests.end(),
                          [&](uint64_t d) { return d == digests[0]; }),
              "the same seed gives the same inputs");

  Outcome out = RunTimed(w.get(), o, &ledger, setup_s);
  w->Gates();
  std::filesystem::remove_all(o.work_dir, ec);

  const std::vector<Metric>& metrics = o.trace ? out.per_layer : out.end_to_end;
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  ledger.Gate(finite, "every metric is a finite number");
  const bool correct = ledger.failed() == 0;
  const sidq::kernels::Isa isa = sidq::kernels::KernelDispatch::Active();
  const std::vector<Metric> named = NamedMetrics(o.workload, out, ledger.ErrorRate());

  std::printf("sidq perfbench: workload %s, seed %llu, %s run, %d+%d "
              "iterations (untraced+traced), %zu op samples, isa %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced", out.untraced_iterations,
              out.traced_iterations, out.op_samples,
              sidq::kernels::IsaName(isa));
  std::printf("  op   = %s\n  item = %s\n", w->op_name(), w->item_name());
  PrintMetrics("end-to-end (workload names):", named);
  if (o.trace) {
    PrintMetrics("per-layer:", out.per_layer);
    std::printf("span self time per iteration (median):\n");
    for (const auto& [name, s] : out.self_s) {
      std::printf("  %-34s %16.6g s\n", name.c_str(), s);
    }
  } else {
    PrintMetrics("end-to-end:", out.end_to_end);
  }
  for (const std::string& f : ledger.failures()) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  if (!a.record_dir.empty()) {
    std::filesystem::create_directories(a.record_dir, ec);
    const std::string stem = a.record_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + (o.trace ? "-traced" : "") +
                             "-" + started;
    JsonObject sizes;
    w->Describe(&sizes);
    std::string failures = "[";
    for (size_t i = 0; i < ledger.failures().size(); ++i) {
      failures += (i ? ", " : "") + JsonQuote(ledger.failures()[i]);
    }
    failures += "]";
    JsonObject record;
    record.Str("run_id", o.workload + "-" + std::to_string(o.seed) + "-" + started)
        .Str("benchmark", "sidq perfbench")
        .Str("config_version", "1")
        .Str("workload", o.workload)
        .Int("seed", static_cast<int64_t>(o.seed))
        .Bool("traced", o.trace)
        .Str("started_utc", started)
        .Num("duration_s", NsToS(NowNs() - run_start))
        .Num("measure_seconds", o.seconds)
        .Str("git_commit", a.commit)
        .Str("source_digest", a.source_digest)
        .Str("build_type", PERFBENCH_BUILD_TYPE)
        .Int("nproc", std::thread::hardware_concurrency())
        .Str("cpu_model", CpuModel())
        .Str("isa_tier", sidq::kernels::IsaName(isa))
        .Str("flush_policy",
             "Store::Commit fsyncs segment data and publishes the manifest "
             "atomically; stores live on the checkout's filesystem; reads "
             "are served from a warm OS page cache")
        .Raw("sizes", sizes.str())
        .Int("iterations_untraced", out.untraced_iterations)
        .Int("iterations_traced", out.traced_iterations)
        .Raw("iteration_walls_s", JsonArray(out.walls_untraced))
        .Raw("iteration_cpu_s", JsonArray(out.cpu_untraced))
        .Int("attempted", ledger.attempted())
        .Int("failed", ledger.failed())
        .Num("error_rate", ledger.ErrorRate())
        .Bool("correct", correct)
        .Raw("failures", failures)
        .Raw("metrics", MetricsJson(metrics))
        .Raw("named_metrics", MetricsJson(named));
    std::ofstream(stem + ".json") << record.str() << "\n";
    if (o.trace) std::ofstream(stem + ".trace.json") << ChromeTraceJson(out.trace);
    std::printf("run record: %s.json\n", stem.c_str());
  }

  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", ledger.attempted())
                          .Int("failed", ledger.failed())
                          .Raw("metrics", MetricsJson(metrics))
                          .str()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.selftest) {
    const int failed = perfbench::RunSelfTests();
    std::printf("selftest: %s (%d failed)\n", failed == 0 ? "ok" : "FAILED",
                failed);
    return failed == 0 ? 0 : 1;
  }
  return perfbench::Run(args);
}
