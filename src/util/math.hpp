// Scalar root finding and small numeric helpers for the analytical models.
#pragma once

#include <cmath>
#include <optional>
#include <utility>

namespace bbrnash {

struct RootOptions {
  double tolerance = 1e-9;  ///< absolute tolerance on the bracket width
  int max_iterations = 200;
};

/// Finds x in [lo, hi] with f(x) ~ 0 by safeguarded bisection.
///
/// Requires f(lo) and f(hi) to have opposite signs (or one of them to be
/// zero); returns std::nullopt when the bracket does not straddle a root.
/// Bisection is chosen over Newton because the model equations are cheap and
/// we value unconditional convergence over iteration count. A template on
/// the callable, so each model solve inlines its residual.
template <typename F>
std::optional<double> find_root_bisect(F&& f, double lo, double hi,
                                       const RootOptions& opts = {}) {
  if (lo > hi) std::swap(lo, hi);
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if (std::signbit(flo) == std::signbit(fhi)) return std::nullopt;

  for (int i = 0; i < opts.max_iterations && (hi - lo) > opts.tolerance; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Linear interpolation parameter: returns t such that
/// lo + t*(hi-lo) == x, clamped to [0,1].
double inverse_lerp(double lo, double hi, double x);

/// True when |a-b| <= tol * max(1, |a|, |b|) (mixed abs/rel comparison).
bool nearly_equal(double a, double b, double tol = 1e-9);

/// NaN/Inf guard for model outputs: returns `v` unchanged when finite,
/// otherwise throws std::domain_error naming `what`. A silent NaN from a
/// model evaluation would propagate into shares and NE payoffs and corrupt
/// conclusions without any error; failing loudly at the source is cheaper
/// than auditing downstream.
double ensure_finite(double v, const char* what);

}  // namespace bbrnash
