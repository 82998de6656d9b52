// The sidq benchmark workloads behind one interface. Each one builds
// its inputs from the seed (Setup), runs one timed iteration at a time
// (Iterate), and checks its outputs once timing is over (Gates). The
// runner in main.cc repeats Setup, loops Iterate for the requested
// seconds, and turns the iterations into metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for stores; wiped and recreated by the run.
  std::string work_dir;
};

// What one timed iteration measured.
struct IterationResult {
  int64_t wall_ns = 0;       // the iteration's timed wall
  double items = 0.0;        // work items behind throughput_per_s
  int64_t item_ns = 0;       // time base of the throughput (0 = wall_ns)
  std::vector<double> op_ms;  // per-operation latencies (op_p50/op_tail)
  // Per-layer values the workload measured itself (timings it takes
  // anyway, counters the sidq API returns). The runner adds span sums
  // "<span name>_s" for traced iterations.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs from the seed and whatever the timed phase starts
  // from. Returns a digest of the inputs: the same seed must give the
  // same digest on every call.
  virtual uint64_t Setup() = 0;
  // One timed iteration; `rec` is null when the iteration is untraced.
  // Work that resets state between iterations happens here but outside
  // the timed region.
  virtual IterationResult Iterate(uint64_t index, SpanRecorder* rec) = 0;
  // Correctness gates, run once after the timed phase.
  virtual void Gates() = 0;

  // Percentile reported as op_tail_ms: the highest of p99/p95 whose
  // sample at the default run length keeps >= 10 samples beyond it.
  [[nodiscard]] virtual double tail_q() const = 0;
  // What an op and an item are, for the report.
  [[nodiscard]] virtual const char* op_name() const = 0;
  [[nodiscard]] virtual const char* item_name() const = 0;
  // Sizes and configuration for the run record.
  virtual void Describe(JsonObject* record) const = 0;
};

std::unique_ptr<Workload> MakeColdScan(const RunOptions& options,
                                       Ledger* ledger);
std::unique_ptr<Workload> MakeWarmQuery(const RunOptions& options,
                                        Ledger* ledger);
std::unique_ptr<Workload> MakeFleetClean(const RunOptions& options,
                                         Ledger* ledger);

// Self-tests of the benchmark's own machinery; returns the number of
// failed checks.
int RunSelfTests();

}  // namespace perfbench
