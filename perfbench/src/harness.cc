#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Checksums

void Fnv64::AddF64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  AddU64(bits);
}

void Fnv64::AddRecord(const sidq::StRecord& r) {
  AddU64(r.sensor);
  AddU64(static_cast<uint64_t>(r.t));
  AddF64(r.loc.x);
  AddF64(r.loc.y);
  AddF64(r.value);
  AddF64(r.stddev);
}

// ---------------------------------------------------------------------------
// Statistics

namespace {

// ceil(q * n) for q in (0, 1], at least 1, robust to q * n landing a hair
// above an integer (0.99 * 100 must be rank 99, not 100).
size_t Rank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t k = Rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

size_t LogHistogram::BucketOf(uint64_t v) {
  constexpr uint64_t kSub = 1u << kSubBits;
  if (v < kSub) return static_cast<size_t>(v);
  const int e = 63 - __builtin_clzll(v);
  const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
  return static_cast<size_t>(e - kSubBits + 1) * kSub + sub;
}

uint64_t LogHistogram::UpperBound(size_t b) {
  constexpr uint64_t kSub = 1u << kSubBits;
  if (b < kSub) return b;
  const int e = static_cast<int>(b / kSub) + kSubBits - 1;
  const uint64_t sub = b % kSub;
  const uint64_t lower = (kSub + sub) << (e - kSubBits);
  return lower + ((uint64_t{1} << (e - kSubBits)) - 1);
}

void LogHistogram::Record(int64_t ns) {
  ++buckets_[BucketOf(static_cast<uint64_t>(std::max<int64_t>(ns, 0)))];
  ++count_;
}

double LogHistogram::PercentileNs(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<int64_t>(Rank(static_cast<size_t>(count_), q));
  int64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return static_cast<double>(UpperBound(b));
  }
  return static_cast<double>(UpperBound(kBuckets - 1));
}

// ---------------------------------------------------------------------------
// Error accounting

void Ledger::GateEqual(uint64_t got, uint64_t want, const std::string& what) {
  if (mutate_expected_) want ^= 1;
  ++attempted_;
  if (got != want) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " (got %016llx, want %016llx)",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    Fail("gate " + what + buf);
  }
}

void Ledger::Fail(std::string what) {
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(std::move(what));
}

// ---------------------------------------------------------------------------
// Spans

namespace {

std::atomic<uint64_t> g_next_instance{1};

struct ThreadBufferCache {
  uint64_t instance = 0;
  void* buffer = nullptr;
};
thread_local ThreadBufferCache t_buffer_cache;
thread_local uint64_t t_current_span = 0;

}  // namespace

SpanRecorder::SpanRecorder()
    : instance_(g_next_instance.fetch_add(1, std::memory_order_relaxed)) {}

SpanRecorder::Buffer* SpanRecorder::ThreadBuffer() {
  if (t_buffer_cache.instance == instance_) {
    return static_cast<Buffer*>(t_buffer_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buf = buffers_.back().get();
  buf->thread = static_cast<uint32_t>(buffers_.size());
  buf->spans.reserve(4096);
  t_buffer_cache = {instance_, buf};
  return buf;
}

void SpanRecorder::Record(const Span& span) {
  Buffer* buf = ThreadBuffer();
  Span s = span;
  s.thread = buf->thread;
  buf->spans.push_back(s);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) buf->spans.clear();
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request,
                       uint64_t parent)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  span_.name = name;
  span_.id = rec_->NextId();
  span_.parent = parent == kInheritParent ? t_current_span : parent;
  span_.request = request;
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current_span = saved_current_;
  rec_->Record(span_);
}

namespace {

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    children[it->second].emplace_back(std::max(s.start_ns, p.start_ns),
                                      std::min(s.end_ns, p.end_ns));
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_ns - spans[i].start_ns) -
              UnionLength(std::move(children[i]));
  }
  return self;
}

double ChildCoverage(const std::vector<Span>& spans, uint64_t root_id) {
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id != root_id) continue;
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    if (dur <= 0) return 0.0;
    std::vector<Span> sub;
    for (const Span& s : spans) {
      if (s.id == root_id || s.parent == root_id) sub.push_back(s);
    }
    const std::vector<int64_t> self = SelfTimesNs(sub);
    for (size_t j = 0; j < sub.size(); ++j) {
      if (sub[j].id == root_id) {
        return 1.0 - static_cast<double>(self[j]) / static_cast<double>(dur);
      }
    }
  }
  return 0.0;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[384];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, s.thread,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Process and machine facts

bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Output

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key) + ": ";
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += JsonQuote(v);
  return *this;
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  body_ += JsonNumber(v);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject all;
  for (const Metric& m : metrics) {
    all.Raw(m.name,
            JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  return all.str();
}

}  // namespace perfbench
