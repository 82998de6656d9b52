// BENCH kernels: columnar kernel layer vs. scalar AoS reference.
//
// Times each kernel primitive row against the scalar reference
// implementation it replaced (kernels/scalar_ref.cc, compiled with
// auto-vectorization disabled) on a fleet-scale workload, and checks
// BIT-IDENTITY of every output via FNV-1a checksums over the raw double
// bit patterns: the kernel layer is only allowed to be faster, never
// different. A checksum mismatch is a hard failure (exit 1), so this bench
// doubles as the cross-layer equivalence gate. scripts/bench_json.py
// scrapes the BENCH_JSON line into BENCH_kernels.json.
//
// Primitives:
//   frechet_row  full discrete Frechet through the dispatched
//                anti-diagonal wavefront (kernels::FrechetFullKernel)
//   dtw_full     unbanded DTW through the dispatched anti-diagonal
//                wavefront (kernels::DtwFullKernel)
//
// Pass --quick to cut repetitions (CI smoke). Pass --checksums-out FILE to
// additionally write one "<primitive> <checksum>" line per primitive:
// run_all.sh and CI byte-compare (cmp) that file between a dispatched run
// and a SIDQ_FORCE_ISA=scalar run -- the runtime-dispatch analogue of the
// in-process scalar-vs-kernel gate. The BENCH_JSON line records which ISA
// tier the dispatcher resolved ("isa").

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/hash.h"
#include "core/random.h"
#include "core/trajectory.h"
#include "core/vfs.h"
#include "kernels/dispatch.h"
#include "kernels/scalar_ref.h"
#include "kernels/soa.h"
#include "query/similarity.h"

namespace sidq {
namespace {

constexpr size_t kFleetSize = 1000;
constexpr size_t kPointsEach = 64;
constexpr uint64_t kSeed = 20220611;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<Trajectory> MakeFleet() {
  Rng rng(kSeed);
  std::vector<Trajectory> fleet;
  fleet.reserve(kFleetSize);
  for (size_t i = 0; i < kFleetSize; ++i) {
    Trajectory t(static_cast<ObjectId>(i));
    t.Reserve(kPointsEach);
    double x = rng.Uniform(0.0, 5000.0);
    double y = rng.Uniform(0.0, 5000.0);
    double vx = rng.Gaussian(0.0, 8.0);
    double vy = rng.Gaussian(0.0, 8.0);
    for (size_t k = 0; k < kPointsEach; ++k) {
      t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 1000,
                                        geometry::Point(x, y), 8.0));
      vx += rng.Gaussian(0.0, 1.0);
      vy += rng.Gaussian(0.0, 1.0);
      x += vx;
      y += vy;
    }
    fleet.push_back(std::move(t));
  }
  return fleet;
}

// FNV-1a over raw bit patterns: any rounding difference flips the hash.
struct Checksum {
  uint64_t h = kFnvTruncatedBasis;
  void Mix(uint64_t v) { h = FnvMixWord(h, v); }
  void MixDouble(double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
};

struct PrimitiveResult {
  const char* name;
  double scalar_s = 0.0;
  double kernel_s = 0.0;
  double speedup = 0.0;
  uint64_t checksum = 0;
  bool identical = false;
};

// ------------------------------------------------------------- primitives

// Best-of-N timing: one pass over the pairs takes ~10 ms, short enough
// that a single preemption on a shared host would decide the ratio.
constexpr int kTimingReps = 5;

// Times `pairs` fleet pairs through the scalar reference measure and the
// kernel-layer measure, alternating the two over kTimingReps rounds and
// keeping each side's fastest pass; checksums both outputs.
template <typename ScalarFn, typename KernelFn>
PrimitiveResult BenchMeasure(const char* name,
                             const std::vector<Trajectory>& fleet,
                             size_t pairs, ScalarFn scalar_fn,
                             KernelFn kernel_fn) {
  const auto timed_pass = [&](auto fn, Checksum* sum) {
    *sum = Checksum{};
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t p = 0; p < pairs; ++p) {
      const Trajectory& a = fleet[p % fleet.size()];
      const Trajectory& b = fleet[(p * 11 + 5) % fleet.size()];
      sum->MixDouble(fn(a, b));
    }
    return SecondsSince(t0);
  };
  PrimitiveResult r{name};
  r.scalar_s = r.kernel_s = 1e300;
  Checksum scalar_sum, kernel_sum;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    r.scalar_s = std::min(r.scalar_s, timed_pass(scalar_fn, &scalar_sum));
    r.kernel_s = std::min(r.kernel_s, timed_pass(kernel_fn, &kernel_sum));
  }
  r.speedup = r.scalar_s / r.kernel_s;
  r.checksum = kernel_sum.h;
  r.identical = scalar_sum.h == kernel_sum.h;
  return r;
}

std::string JsonResults(const std::vector<PrimitiveResult>& results) {
  std::string out = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"primitive\":\"%s\",\"scalar_s\":%.4f,"
                  "\"kernel_s\":%.4f,\"speedup\":%.2f,"
                  "\"checksum\":\"%016llx\",\"identical\":%s}",
                  i == 0 ? "" : ",", results[i].name, results[i].scalar_s,
                  results[i].kernel_s, results[i].speedup,
                  static_cast<unsigned long long>(results[i].checksum),
                  results[i].identical ? "true" : "false");
    out += buf;
  }
  return out + "]";
}

}  // namespace
}  // namespace sidq

int main(int argc, char** argv) {
  using namespace sidq;

  bool quick = false;
  std::string checksums_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--quick") quick = true;
    if (arg == "--checksums-out" && i + 1 < argc) checksums_out = argv[++i];
  }

  bench::Banner("BENCH kernels", "columnar kernels vs scalar reference",
                "querying massive low-quality SID collections needs "
                "hardware-friendly similarity/index primitives; the "
                "columnar fast lane must change performance, not results");

  const char* isa = kernels::IsaName(kernels::KernelDispatch::Active());
  const auto fleet = MakeFleet();
  std::printf("fleet: %zu trajectories x %zu points, isa: %s%s\n\n",
              fleet.size(), static_cast<size_t>(kPointsEach), isa,
              quick ? " (--quick)" : "");

  // Materialize every trajectory's column view up front. Views are
  // memoized on the trajectory in production, so timing the one-time
  // build inside the first primitive would misattribute it.
  for (const Trajectory& t : fleet) {
    (void)kernels::TrajectoryView::Of(t);  // sidq: allow-ignored-status(warmup)
  }

  const size_t mul = quick ? 1 : 10;
  std::vector<PrimitiveResult> results;
  results.push_back(BenchMeasure(
      "frechet_row", fleet, 100 * mul,
      [](const Trajectory& a, const Trajectory& b) {
        return kernels::scalar::FrechetDistance(a, b);
      },
      [](const Trajectory& a, const Trajectory& b) {
        return query::DiscreteFrechetDistance(a, b);
      }));
  results.push_back(BenchMeasure(
      "dtw_full", fleet, 100 * mul,
      [](const Trajectory& a, const Trajectory& b) {
        return kernels::scalar::DtwDistance(a, b, -1);
      },
      [](const Trajectory& a, const Trajectory& b) {
        return query::DtwDistance(a, b);
      }));

  bench::Table table(
      {"primitive", "scalar_s", "kernel_s", "speedup", "bit-identical"});
  bool all_identical = true;
  for (const PrimitiveResult& r : results) {
    table.AddRow({r.name, bench::F3(r.scalar_s), bench::F3(r.kernel_s),
                  bench::F2(r.speedup), r.identical ? "yes" : "NO"});
    all_identical = all_identical && r.identical;
  }
  table.Print();

  if (!all_identical) {
    std::fprintf(stderr,
                 "EQUIVALENCE VIOLATION: kernel output differs from the "
                 "scalar reference\n");
    return 1;
  }
  std::printf("equivalence: all kernel outputs bit-identical to scalar\n\n");

  if (!checksums_out.empty()) {
    // One "<primitive> <checksum>" line per primitive: the byte-compare
    // surface for the forced-scalar vs dispatched gate. Published
    // atomically so a crashed bench can never leave a truncated file that
    // cmp would read as a checksum mismatch.
    std::string lines;
    for (const PrimitiveResult& r : results) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s %016llx\n", r.name,
                    static_cast<unsigned long long>(r.checksum));
      lines += buf;
    }
    const sidq::Status st =
        sidq::AtomicWriteFile(sidq::DefaultVfs(), checksums_out, lines);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", checksums_out.c_str(),
                   st.message().c_str());
      return 1;
    }
  }

  std::printf(
      "BENCH_JSON: {\"bench\":\"kernels\",\"host\":{\"cpu\":\"%s\","
      "\"nproc\":%u},\"fleet_size\":%zu,"
      "\"points_per_trajectory\":%zu,\"isa\":\"%s\","
      "\"equivalence\":\"bit-identical\",\"primitives\":%s}\n",
      bench::CpuModel().c_str(), std::thread::hardware_concurrency(),
      fleet.size(), static_cast<size_t>(kPointsEach), isa,
      JsonResults(results).c_str());
  return 0;
}
