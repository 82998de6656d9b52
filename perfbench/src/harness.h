// Measurement machinery of the sidq benchmark: checksums, nearest-rank
// statistics, a log-scale latency histogram, the attempted/failed ledger
// behind `error_rate`, and an in-memory span recorder whose spans are
// taken around the benchmark's own calls into each sidq layer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/stid.h"

namespace perfbench {

// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ---------------------------------------------------------------------------
// Checksums

// FNV-1a over the bit patterns of what it is fed, one 64-bit word per
// step so hashing a scanned row stays cheap next to reading it. Each step
// is a bijection of the state, so any single differing word changes the
// digest: equal digests stand for "bit-identical".
class Fnv64 {
 public:
  Fnv64() = default;
  // Continues hashing after the input whose digest is `state`.
  explicit Fnv64(uint64_t state) : h_(state) {}

  void AddU64(uint64_t v) {
    h_ ^= v;
    h_ *= kPrime;
  }
  void AddF64(double v);
  void AddRecord(const sidq::StRecord& r);
  [[nodiscard]] uint64_t value() const { return h_; }

 private:
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h_ = 14695981039346656037ull;
};

// ---------------------------------------------------------------------------
// Statistics

// Nearest-rank percentile, q in (0, 1]: the smallest sample that has at
// least ceil(q * n) samples at or below it. 0 for an empty sample.
double NearestRank(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5);
}

// Samples strictly above the nearest-rank q-th percentile: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

// A tail percentile is reported only when at least ten samples lie beyond
// it; below that it is one or two outliers, not a percentile.
inline constexpr size_t kMinSamplesBeyondTail = 10;
inline bool TailSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyondTail;
}

// Latency histogram over nanoseconds with 8 sub-buckets per power of two
// (relative bucket width <= 12.5%), so a million per-call samples cost a
// fixed few kilobytes instead of a span each.
class LogHistogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr size_t kBuckets = 64 << kSubBits;

  void Record(int64_t ns);
  [[nodiscard]] int64_t count() const { return count_; }
  // Nearest-rank percentile resolved to the upper bound of its bucket.
  [[nodiscard]] double PercentileNs(double q) const;

  static size_t BucketOf(uint64_t v);
  // Largest value that maps to bucket `b`.
  static uint64_t UpperBound(size_t b);

 private:
  std::vector<int64_t> buckets_ = std::vector<int64_t>(kBuckets, 0);
  int64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Error accounting

// Counts attempted and failed operations. An operation is one call into a
// sidq layer (failed when it returns non-OK) or one correctness gate
// (failed when the check does not hold). Quarantined records and blocks
// are outcomes the layers report, not failures.
class Ledger {
 public:
  // `mutate_expected` makes every checksum gate compare against a wrong
  // expected value; the self-test uses it to prove a broken output fails
  // the run.
  explicit Ledger(bool mutate_expected = false)
      : mutate_expected_(mutate_expected) {}

  void Op(const sidq::Status& st, const char* what) {
    ++attempted_;
    if (!st.ok()) Fail(std::string(what) + ": " + st.ToString());
  }
  void Gate(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail("gate " + what);
  }
  void GateEqual(uint64_t got, uint64_t want, const std::string& what);

  [[nodiscard]] int64_t attempted() const { return attempted_; }
  [[nodiscard]] int64_t failed() const { return failed_; }
  [[nodiscard]] double ErrorRate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  void Fail(std::string what);

  bool mutate_expected_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the report
};

// ---------------------------------------------------------------------------
// Spans

// One timed region around a layer call. `request` groups the spans of one
// request (a micro-batch, a query request, a trajectory, an iteration);
// `parent` is 0 for a root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t thread = 0;
};

// Keeps spans in per-thread buffers (no lock on the recording path after a
// thread's first span) and hands them out merged when asked.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  // Every recorded span, ordered by (start, id). Call only while no thread
  // is recording.
  [[nodiscard]] std::vector<Span> Collect() const;
  // Drops the recorded spans, keeping the buffers. Same caveat.
  void Clear();

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  const uint64_t instance_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

// RAII span. With a null recorder it records nothing. Without an explicit
// parent it nests under the calling thread's innermost open ScopedSpan;
// work handed to other threads passes the parent id explicitly.
class ScopedSpan {
 public:
  static constexpr uint64_t kInheritParent = ~0ull;

  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request,
             uint64_t parent = kInheritParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* rec_;
  Span span_;
  uint64_t saved_current_ = 0;
};

// Self time of every span: its duration minus the union of its direct
// children's intervals (clipped to the span), so overlapping children on
// different threads are not double-counted. Aligned with `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Share of span `root_id`'s duration covered by its direct children.
double ChildCoverage(const std::vector<Span>& spans, uint64_t root_id);

// Chrome trace-event JSON (chrome://tracing, Perfetto) of `spans`.
std::string ChromeTraceJson(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Process and machine facts

// Returns freed heap to the OS and resets the kernel's peak-RSS mark
// (/proc/self/clear_refs), so the next PeakRssMb() covers only what runs
// after this call. Returns false when the mark could not be reset.
bool ResetPeakRss();
double PeakRssMb();  // VmHWM of this process
std::string CpuModel();

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Minimal JSON object builder (insertion order kept).
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, int64_t v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonQuote(const std::string& s);
// Shortest text that parses back to exactly `v`; non-finite values become
// null (and are treated as a failed run by the caller).
std::string JsonNumber(double v);

// {"name": {"value": v, "unit": u}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace perfbench
