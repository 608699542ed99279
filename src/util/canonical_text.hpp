// Canonical decimal text for numbers in checkpoint keys, oracle keys and
// JSONL records.
//
// Every number that becomes part of a key or a record has one spelling: a
// double is written exactly as printf's %.17g writes it (17 significant
// digits, enough for any IEEE-754 double to parse back bit-identically),
// an integer in plain decimal exactly as %lld / %llu write it. The text is
// produced by std::to_chars, which does not go through stdio's locale and
// stream machinery, but the bytes are the same as the snprintf forms, so
// keys and logs written by either stay interchangeable.
// tests/util/test_canonical_text.cpp keeps snprintf as the reference.
#pragma once

#include <cstddef>
#include <string>

namespace bbrnash {

/// Room for the longest canonical text of any supported value
/// ("-1.7976931348623157e+308" is 24 characters, "-9223372036854775808"
/// 20). No terminating NUL is written.
inline constexpr std::size_t kCanonicalTextMax = 32;

/// Writes the %.17g text of `v` at `first` (which must have room for
/// kCanonicalTextMax characters) and returns one past its last character.
char* write_canonical(char* first, double v);
/// Same, for the %lld text of `v`.
char* write_canonical(char* first, long long v);
/// Same, for the %llu text of `v`.
char* write_canonical(char* first, unsigned long long v);

/// Appends the canonical text of `v` to `out`.
template <typename T>
void append_canonical(std::string& out, T v) {
  char buf[kCanonicalTextMax];
  out.append(buf, write_canonical(buf, v));
}

}  // namespace bbrnash
