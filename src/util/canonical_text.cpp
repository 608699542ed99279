#include "util/canonical_text.hpp"

#include <charconv>

namespace bbrnash {

// chars_format::general at precision 17 follows printf's %g rules: it picks
// fixed or exponent form by the same threshold, strips trailing zeros,
// and writes at least two exponent digits ("1e-07"), infinities as
// "inf"/"-inf" and NaNs as "nan"/"-nan".
char* write_canonical(char* first, double v) {
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
