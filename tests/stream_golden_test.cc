// Golden snapshots of the stream engine's quarantine ledger and windowed
// KPI/alert exports, pinned byte-for-byte. The scenario is a hand-authored
// arrival sequence (no library-math draws, only IEEE arithmetic), so the
// literals are stable across platforms; the exports must also be identical
// for 1, 2, and 8 replay workers and across repeated runs.
//
// An intentional change to the export format or the cleaning arithmetic
// regenerates them:
//
//   SIDQ_REGEN_GOLDEN=1 ./stream_golden_test
//
// prints the current ledger/KPI/alert JSON and output checksum to stdout
// for pasting back into this file. An *unintentional* diff means worker
// count, arrival wall time, or map iteration order leaked into the stream
// outputs -- a determinism bug, not a stale golden.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "stream/engine.h"
#include "stream/event_log.h"
#include "stream/replay.h"
#include "stream/rules.h"

namespace sidq {
namespace stream {
namespace {

// Sensors 1 and 2 have rules; sensor 3 is unknown (strict policy). The
// sequence exercises every quarantine reason the batch path can produce:
// out-of-order-but-in-lateness admits, a late straggler, a duplicate
// delivery, a range violation, a NaN, and an unknown sensor.
EventLog MakeGoldenLog() {
  EventLog log;
  log.field_name = "pm25";
  auto add = [&log](SensorId sensor, Timestamp t, double value) {
    StreamEvent ev;
    ev.seq = log.events.size();
    ev.arrival_ms = t;
    ev.record = StRecord(sensor, t,
                         geometry::Point(100.0 * static_cast<double>(sensor),
                                         50.0),
                         value, 0.5);
    log.events.push_back(ev);
  };
  add(1, 1000, 10.0);
  add(2, 1000, 20.0);
  add(1, 3000, 10.5);
  add(1, 2000, 10.25);  // out of order, within lateness: admitted
  add(3, 1000, 5.0);    // unknown sensor
  add(1, 3000, 10.5);   // duplicate delivery
  add(2, 2000, 150.0);  // out of range
  add(1, 9000, 11.0);
  add(1, 14'000, 11.5);  // watermark 9000: closes window [0, 10000)
  add(1, 2500, 10.0);    // late (2500 <= watermark 9000)
  add(2, 9000, 20.5);
  add(1, 15'000, std::nan(""));  // non-finite
  add(1, 16'000, 12.0);
  add(2, 14'000, 21.0);
  return log;
}

StreamConfig GoldenConfig() {
  StreamConfig config;
  SensorRule rule;
  rule.min_value = 0.0;
  rule.max_value = 100.0;
  rule.expected_interval_ms = 1000;
  rule.max_lateness_ms = 5000;
  rule.max_rate_per_s = 1.0;
  config.rules.set_default_rule(rule);
  config.rules.AddRule(1, rule);
  config.rules.AddRule(2, rule);
  config.rules.set_quarantine_unknown(true);
  config.window_ms = 10'000;
  config.window_capacity = 16;
  config.robust_z.min_samples = 8;
  return config;
}

struct GoldenRun {
  std::string ledger_json;
  std::string kpis_json;
  std::string alerts_json;
  std::string output_json;
  uint64_t checksum = 0;
};

GoldenRun RunGolden(int workers) {
  ReplayOptions options;
  options.num_threads = workers;
  const StatusOr<StreamOutput> streamed =
      Replay(MakeGoldenLog(), GoldenConfig(), options);
  EXPECT_TRUE(streamed.ok()) << streamed.status();
  GoldenRun run;
  if (!streamed.ok()) return run;
  run.ledger_json = QuarantineLedgerToJson(streamed->ledger);
  for (const WindowKpis& kpis : streamed->kpis) {
    run.kpis_json += WindowKpisToJson(kpis) + "\n";
  }
  for (const KpiAlert& alert : streamed->alerts) {
    run.alerts_json += KpiAlertToJson(alert) + "\n";
  }
  run.output_json = StreamOutputToJson(*streamed);
  run.checksum = OutputChecksum(*streamed);
  return run;
}

// --- golden literals (regenerate with SIDQ_REGEN_GOLDEN=1) ---

const char kGoldenLedger[] = R"golden([
  {"seq":4,"sensor":3,"t":1000,"value":5,"reason":"unknown_sensor"},
  {"seq":5,"sensor":1,"t":3000,"value":10.5,"reason":"duplicate"},
  {"seq":6,"sensor":2,"t":2000,"value":150,"reason":"out_of_range"},
  {"seq":9,"sensor":1,"t":2500,"value":10,"reason":"late"},
  {"seq":11,"sensor":1,"t":15000,"value":nan,"reason":"non_finite"}
])golden";

const char kGoldenKpis[] =
    R"golden({"sensor":1,"window_start":0,"window_end":10000,"count":4,"outliers":0,"duplicates":1,"completeness":0.4,"redundancy":0.2,"max_gap_ms":6000,"precision_stddev":0.4499927823689622,"consistency_violations":0,"mean_value":10.4375,"min_value":10,"max_value":11,"drift":false}
{"sensor":1,"window_start":10000,"window_end":20000,"count":2,"outliers":0,"duplicates":0,"completeness":0.2,"redundancy":0,"max_gap_ms":4000,"precision_stddev":0.46801493558834617,"consistency_violations":0,"mean_value":11.75,"min_value":11.5,"max_value":12,"drift":false}
{"sensor":2,"window_start":0,"window_end":10000,"count":2,"outliers":0,"duplicates":0,"completeness":0.2,"redundancy":0,"max_gap_ms":8000,"precision_stddev":0.42677181922363194,"consistency_violations":0,"mean_value":20.25,"min_value":20,"max_value":20.5,"drift":false}
{"sensor":2,"window_start":10000,"window_end":20000,"count":1,"outliers":0,"duplicates":0,"completeness":0.1,"redundancy":0,"max_gap_ms":6000,"precision_stddev":0.4900978849889676,"consistency_violations":0,"mean_value":21,"min_value":21,"max_value":21,"drift":false}
)golden";

const char kGoldenAlerts[] =
    R"golden({"sensor":1,"window_start":0,"dimension":"completeness","observed":0.4,"threshold":0.5}
{"sensor":1,"window_start":10000,"dimension":"completeness","observed":0.2,"threshold":0.5}
{"sensor":2,"window_start":0,"dimension":"completeness","observed":0.2,"threshold":0.5}
{"sensor":2,"window_start":10000,"dimension":"completeness","observed":0.1,"threshold":0.5}
)golden";

constexpr uint64_t kGoldenChecksum = 13662514292944334687ull;

class StreamGoldenTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailPoints(); }
};

TEST_F(StreamGoldenTest, SerialReplayMatchesGoldenLiterals) {
  const GoldenRun run = RunGolden(1);

  if (std::getenv("SIDQ_REGEN_GOLDEN") != nullptr) {
    std::printf(
        "--- ledger ---\n%s\n--- kpis ---\n%s--- alerts ---\n%s"
        "--- checksum ---\n%lluull\n",
        run.ledger_json.c_str(), run.kpis_json.c_str(),
        run.alerts_json.c_str(),
        static_cast<unsigned long long>(run.checksum));
    GTEST_SKIP() << "regen mode: printed current goldens";
  }

  EXPECT_EQ(run.ledger_json, kGoldenLedger);
  EXPECT_EQ(run.kpis_json, kGoldenKpis);
  EXPECT_EQ(run.alerts_json, kGoldenAlerts);
  EXPECT_EQ(run.checksum, kGoldenChecksum);
}

TEST_F(StreamGoldenTest, ExportsAreIdenticalForAnyWorkerCount) {
  const GoldenRun reference = RunGolden(1);
  for (const int workers : {2, 8}) {
    const GoldenRun run = RunGolden(workers);
    EXPECT_EQ(run.output_json, reference.output_json)
        << workers << " workers changed the stream output";
    EXPECT_EQ(run.checksum, reference.checksum);
  }
}

TEST_F(StreamGoldenTest, RepeatedRunsAreByteIdentical) {
  const GoldenRun a = RunGolden(4);
  const GoldenRun b = RunGolden(4);
  EXPECT_EQ(a.output_json, b.output_json);
  EXPECT_EQ(a.checksum, b.checksum);
}

// The golden scenario matches the batch reference too -- the differential
// contract holds on the pinned scenario itself.
TEST_F(StreamGoldenTest, GoldenScenarioSatisfiesTheDifferentialContract) {
  const GoldenRun run = RunGolden(1);
  const StreamOutput batch = BatchReference(MakeGoldenLog(), GoldenConfig());
  EXPECT_EQ(run.output_json, StreamOutputToJson(batch));
}

}  // namespace
}  // namespace stream
}  // namespace sidq
