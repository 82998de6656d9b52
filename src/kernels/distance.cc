#include "kernels/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/dispatch.h"

namespace sidq {
namespace kernels {

// Shims over the runtime-dispatched table. KernelDispatch::Get() resolves
// once per process (CPUID + SIDQ_FORCE_ISA) and then is a single atomic
// load, so the indirection adds one predictable call per batch -- noise
// next to the loops it selects.

void DistRow(double qx, double qy, const double* bx, const double* by,
             size_t lo, size_t hi, double* out) {
  KernelDispatch::Get().dist_row(qx, qy, bx, by, lo, hi, out);
}

void PointToManyDist(double px, double py, const double* xs, const double* ys,
                     size_t n, double* out) {
  KernelDispatch::Get().point_to_many_dist(px, py, xs, ys, n, out);
}

void ConsecutiveDist(const double* xs, const double* ys, size_t n,
                     double* out) {
  KernelDispatch::Get().consecutive_dist(xs, ys, n, out);
}

double FrechetFullKernel(const double* ax, const double* ay, size_t n,
                         const double* bx, const double* by, size_t m,
                         double* scratch) {
  return KernelDispatch::Get().frechet_full(ax, ay, n, bx, by, m, scratch);
}

double DtwFullKernel(const double* ax, const double* ay, size_t n,
                     const double* bx, const double* by, size_t m,
                     double* scratch) {
  return KernelDispatch::Get().dtw_full(ax, ay, n, bx, by, m, scratch);
}

// The DP rows: plain fused passes, not dispatched (see distance.h).

void DtwRowKernel(double qx, double qy, const double* bx, const double* by,
                  size_t m, size_t lo, size_t hi, const double* prev,
                  double* cur) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::fill(cur, cur + m + 1, kInf);
  for (size_t j = lo; j <= hi; ++j) {
    const double best = std::min({prev[j], prev[j - 1], cur[j - 1]});
    if (best != kInf) {
      const double dx = qx - bx[j - 1];
      const double dy = qy - by[j - 1];
      cur[j] = std::sqrt(dx * dx + dy * dy) + best;
    }
  }
}

void FrechetRowKernel(double qx, double qy, const double* bx,
                      const double* by, size_t m, const double* prev,
                      double* cur) {
  {
    const double dx = qx - bx[0];
    const double dy = qy - by[0];
    cur[0] = std::max(prev[0], std::sqrt(dx * dx + dy * dy));
  }
  for (size_t j = 1; j < m; ++j) {
    const double dx = qx - bx[j];
    const double dy = qy - by[j];
    const double reach = std::min({prev[j], prev[j - 1], cur[j - 1]});
    cur[j] = std::max(reach, std::sqrt(dx * dx + dy * dy));
  }
}

}  // namespace kernels
}  // namespace sidq
