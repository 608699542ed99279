#include "util/canonical_text.hpp"

#include <charconv>
#include <cmath>

namespace bbrnash {

// chars_format::general at precision 17 follows printf's %g rules: it picks
// fixed or exponent form by the same threshold, strips trailing zeros,
// and writes at least two exponent digits ("1e-07"), infinities as
// "inf"/"-inf" and NaNs as "nan"/"-nan".
//
// An integral value below 2^53 in magnitude has at most 16 digits, so %.17g
// prints it in fixed form with no point and no trailing zeros: the same
// digits as its %lld text, which the integer path writes several times
// faster. Most doubles in a cell key are such values (zero rates, 0/1
// probabilities, whole bytes/s). -0.0 stays on the general path, which
// keeps its sign ("-0").
char* write_canonical(char* first, double v) {
  constexpr double kTwoPow53 = 9007199254740992.0;
  if (v > -kTwoPow53 && v < kTwoPow53) {  // false for NaN
    const auto i = static_cast<long long>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      return write_canonical(first, i);
    }
  }
  return std::to_chars(first, first + kCanonicalTextMax, v,
                       std::chars_format::general, 17)
      .ptr;
}

char* write_canonical(char* first, long long v) {
  return std::to_chars(first, first + kCanonicalTextMax, v).ptr;
}

char* write_canonical(char* first, unsigned long long v) {
  return std::to_chars(first, first + kCanonicalTextMax, v).ptr;
}

}  // namespace bbrnash
