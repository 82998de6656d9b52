// Self-tests of the benchmark's own machinery: percentiles and the
// ">= 10 samples beyond" rule, the latency histogram, span self time with
// nested and overlapping children, and the error_rate ledger. The
// end-to-end check that a wrong expected checksum fails a real run lives in
// run.py --selftest, which drives this binary with --mutate-gates.
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

int g_failed = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++g_failed;
    std::printf("selftest FAILED: %s\n", what);
  }
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Check(NearestRank(v, 0.5) == 50, "p50 of 1..100 is 50");
  Check(NearestRank(v, 0.99) == 99, "p99 of 1..100 is 99");
  Check(NearestRank(v, 0.95) == 95, "p95 of 1..100 is 95");
  Check(NearestRank(v, 1.0) == 100, "p100 of 1..100 is 100");
  Check(NearestRank({7.0}, 0.99) == 7.0, "percentile of one sample");
  Check(NearestRank({}, 0.5) == 0.0, "percentile of no sample is 0");
  Check(Median({3.0, 1.0, 2.0, 4.0}) == 2.0, "median takes the lower middle");

  Check(SamplesBeyond(100, 0.99) == 1, "1 of 100 samples beyond p99");
  Check(TailSupported(1000, 0.99), "p99 needs 1000 samples");
  Check(!TailSupported(999, 0.99), "999 samples do not support p99");
  Check(TailSupported(200, 0.95), "p95 needs 200 samples");
  Check(!TailSupported(199, 0.95), "199 samples do not support p95");
  Check(!TailSupported(0, 0.5), "no sample supports nothing");
}

void TestHistogram() {
  bool consistent = true;
  for (uint64_t v = 0; v < 100'000; v += 7) {
    const size_t b = LogHistogram::BucketOf(v);
    consistent = consistent && v <= LogHistogram::UpperBound(b) &&
                 (b == 0 || LogHistogram::UpperBound(b - 1) < v);
  }
  for (const uint64_t v : {uint64_t{1} << 40, ~uint64_t{0}}) {
    const size_t b = LogHistogram::BucketOf(v);
    consistent = consistent && b < LogHistogram::kBuckets &&
                 v <= LogHistogram::UpperBound(b);
  }
  Check(consistent, "histogram buckets tile the value range in order");

  LogHistogram h;
  for (int64_t ns = 1; ns <= 1000; ++ns) h.Record(ns);
  const double p50 = h.PercentileNs(0.5);
  const double p99 = h.PercentileNs(0.99);
  Check(h.count() == 1000, "histogram counts samples");
  Check(p50 >= 500 && p50 <= 500 * 1.125, "histogram p50 within a bucket");
  Check(p99 >= 990 && p99 <= 990 * 1.125, "histogram p99 within a bucket");
  h.Record(5'000'000);
  Check(h.count() == 1001 && h.PercentileNs(1.0) >= 5'000'000 &&
            h.PercentileNs(0.5) == p50,
        "one outlier moves the maximum, not the median");
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = "t";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // root [0,100]: A [10,40] and B [30,60] overlap, C [90,120] sticks out
  // past the root; A has a nested child D [15,20].
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40), MakeSpan(3, 1, 30, 60),
      MakeSpan(4, 1, 90, 120), MakeSpan(5, 2, 15, 20)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Check(self[0] == 40, "root self time subtracts the union of its children");
  Check(self[1] == 25, "nested child is subtracted from its parent only");
  Check(self[2] == 30 && self[3] == 30 && self[4] == 5,
        "leaf self time is its duration");
  Check(std::fabs(ChildCoverage(spans, 1) - 0.6) < 1e-12,
        "coverage counts overlapping children once and clips to the root");
  Check(ChildCoverage(spans, 99) == 0.0, "coverage of an unknown root is 0");
}

void TestRecorder() {
  SpanRecorder rec;
  uint64_t outer_id = 0, inner_id = 0;
  {
    ScopedSpan outer(&rec, "outer", 7);
    outer_id = outer.id();
    {
      ScopedSpan inner(&rec, "inner", 7);
      inner_id = inner.id();
    }
    std::thread worker([&rec, outer_id] {
      ScopedSpan remote(&rec, "remote", 8, outer_id);
    });
    worker.join();
  }
  const std::vector<Span> spans = rec.Collect();
  bool nested = false, cross = false, outer_root = false;
  uint32_t outer_thread = 0, remote_thread = 0;
  for (const Span& s : spans) {
    if (s.id == outer_id) {
      outer_root = s.parent == 0;
      outer_thread = s.thread;
    }
    if (s.id == inner_id) nested = s.parent == outer_id && s.request == 7;
    if (std::string(s.name) == "remote") {
      cross = s.parent == outer_id && s.request == 8;
      remote_thread = s.thread;
    }
  }
  Check(spans.size() == 3, "recorder keeps every span");
  Check(outer_root && nested, "same-thread spans nest under the open span");
  Check(cross && remote_thread != outer_thread,
        "another thread's span takes the explicit parent in its own buffer");
  ScopedSpan off(nullptr, "off", 0);
  Check(off.id() == 0, "a null recorder records nothing");
  rec.Clear();
  Check(rec.Collect().empty(), "Clear drops the spans");
}

void TestLedger() {
  Ledger ok;
  ok.Op(sidq::Status::OK(), "call");
  ok.Gate(true, "holds");
  ok.GateEqual(42, 42, "same");
  Check(ok.attempted() == 3 && ok.failed() == 0 && ok.ErrorRate() == 0.0,
        "successful operations leave error_rate at 0");

  Ledger bad;
  bad.Op(sidq::Status::Internal("boom"), "call");
  bad.Gate(true, "holds");
  bad.Gate(false, "breaks");
  bad.GateEqual(1, 2, "differs");
  Check(bad.attempted() == 4 && bad.failed() == 3 && bad.ErrorRate() == 0.75,
        "error_rate = failed / attempted");
  Check(bad.failures().size() == 3, "each failure is described");

  Ledger mutated(/*mutate_expected=*/true);
  mutated.GateEqual(42, 42, "same value, wrong expectation");
  Check(mutated.failed() == 1 && mutated.ErrorRate() == 1.0,
        "a wrong expected checksum fails its gate");
}

void TestJson() {
  Check(JsonNumber(0.1) == "0.1", "numbers print shortest round-trip text");
  Check(JsonNumber(1234567.891) == "1234567.891", "all digits are kept");
  Check(JsonNumber(NAN) == "null", "NaN is not a JSON number");
  Check(JsonQuote("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", "strings are escaped");
  Check(MetricsJson({{"x", 1.5, "s"}}) ==
            "{\"x\": {\"value\": 1.5, \"unit\": \"s\"}}",
        "metric JSON shape");
}

}  // namespace

int RunSelfTests() {
  g_failed = 0;
  TestPercentiles();
  TestHistogram();
  TestSelfTime();
  TestRecorder();
  TestLedger();
  TestJson();
  return g_failed;
}

}  // namespace perfbench
