#include "util/math.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace bbrnash {

double inverse_lerp(double lo, double hi, double x) {
  if (hi == lo) return 0.0;
  return std::clamp((x - lo) / (hi - lo), 0.0, 1.0);
}

bool nearly_equal(double a, double b, double tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

double ensure_finite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw std::domain_error{std::string{"non-finite model value: "} + what +
                            " = " + std::to_string(v)};
  }
  return v;
}

}  // namespace bbrnash
