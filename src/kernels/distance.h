#pragma once

#include <cstddef>

#include "core/types.h"

namespace sidq {
namespace kernels {

// Batched distance primitives for the similarity / outlier / map-matching
// hot paths. Every function is a flat-array loop over SoA columns (see
// soa.h). Most are thin shims over the runtime ISA dispatch table (see
// dispatch.h): each such primitive is compiled per ISA tier from one
// shared implementation with FP contraction OFF
// (src/kernels/CMakeLists.txt), so every operation is a correctly-rounded
// IEEE op executed in the same order at every vector width. Results are
// therefore BIT-IDENTICAL to the scalar path, not merely close -- the
// equivalence property tests, kernels_dispatch_test, and the bench_kernels
// checksum gate all assert exact equality.
//
// The two DP row kernels (DtwRowKernel, FrechetRowKernel) are plain,
// non-dispatched functions: their carried cur[j-1] recurrence serializes
// the row at any vector width. They serve banded DTW and the
// deadline-bounded measures; the full DPs (FrechetFullKernel,
// DtwFullKernel) are dispatched anti-diagonal wavefronts, whose diagonals
// have no carried recurrence and vectorize.
//
// Operand-order convention: a distance between a "query" sample q and a
// column sample j is computed as dq = q - column[j] (matching
// geometry::Distance(q, col) = (q - col).Norm()), except where noted.

// out[j] = sqrt((qx-bx[j])^2 + (qy-by[j])^2) for j in [lo, hi).
// Entries outside [lo, hi) are left untouched.
void DistRow(double qx, double qy, const double* bx, const double* by,
             size_t lo, size_t hi, double* out);

// out[j] = distance from column sample j to (px, py), computed as
// (sample - point): matches geometry::Distance(sample, point).
void PointToManyDist(double px, double py, const double* xs, const double* ys,
                     size_t n, double* out);

// out[i] = distance between consecutive samples i and i+1, for
// i in [0, n-1). `out` must hold n-1 doubles; no-op when n < 2.
void ConsecutiveDist(const double* xs, const double* ys, size_t n,
                     double* out);

// One row of the DTW dynamic program (columns of `b`, rows of `a`):
// for 1-based DP columns j in [lo, hi],
//     cur[j] = d(q, b[j-1]) + min(prev[j], prev[j-1], cur[j-1])
// with cur entries outside the band set to +infinity and the sum skipped
// when all three predecessors are +infinity. `prev`/`cur` hold m+1 DP
// cells.
void DtwRowKernel(double qx, double qy, const double* bx, const double* by,
                  size_t m, size_t lo, size_t hi, const double* prev,
                  double* cur);

// One row i >= 1 of the discrete-Frechet dynamic program:
//     cur[j] = max(min(prev[j], prev[j-1], cur[j-1]), d(q, b[j]))
// with the j == 0 column taking reach = prev[0]. `prev`/`cur` hold m
// cells.
void FrechetRowKernel(double qx, double qy, const double* bx,
                      const double* by, size_t m, const double* prev,
                      double* cur);

// The full n x m discrete-Frechet DP (n, m >= 1): returns D[n-1][m-1].
// Processes the table in anti-diagonal wavefronts -- cells of one
// anti-diagonal are independent, so the whole diagonal vectorizes and the
// row form's carried min/max recurrence disappears. `scratch` holds 3*m
// doubles (three rolling diagonals). Bit-identical to seeding row 0 with
// the prefix max of DistRow and iterating FrechetRowKernel: every cell
// evaluates the same expression with the same operand order, and min/max
// never round.
double FrechetFullKernel(const double* ax, const double* ay, size_t n,
                         const double* bx, const double* by, size_t m,
                         double* scratch);

// The full n x m DTW DP without a band (n, m >= 1): returns D[n][m] of the
// DtwRowKernel recurrence. The same anti-diagonal wavefront as
// FrechetFullKernel; `scratch` holds 4*(m+1) doubles (three rolling
// diagonals plus one diagonal's distances). Bit-identical to iterating
// DtwRowKernel over the rows with lo = 1, hi = m: every cell evaluates the
// same min and the same d + best with the same operand order.
double DtwFullKernel(const double* ax, const double* ay, size_t n,
                     const double* bx, const double* by, size_t m,
                     double* scratch);

}  // namespace kernels
}  // namespace sidq
