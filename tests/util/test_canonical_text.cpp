// Canonical number text against its snprintf reference.
//
// Checkpoint keys, oracle keys and JSONL records were once written with
// snprintf("%.17g" / "%lld" / "%llu"); files from that time must keep
// loading under the same keys. So snprintf stays the reference here, and
// every comparison is byte-for-byte.
#include "util/canonical_text.hpp"

#include <bit>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace bbrnash {
namespace {

std::string printf_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string canonical(double v) {
  std::string out;
  append_canonical(out, v);
  return out;
}

/// Doubles to compare: raw bit patterns (every exponent equally likely)
/// and values of everyday size (many digits, both notations).
std::vector<double> seeded_doubles(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      out.push_back(std::bit_cast<double>(rng.next_u64()));
    } else {
      const double scale = std::pow(10.0, static_cast<double>(
                                              rng.next_below(41)) - 20.0);
      out.push_back(rng.next_double() * scale);
    }
  }
  return out;
}

const std::vector<double>& edge_doubles() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      1e-7,  // exponent form with a two-digit exponent
      1e16,  // last power of ten printed in fixed form
      1e17,  // first printed in exponent form
      0.1,
      12500000.25,
      2.5,
  };
  return values;
}

TEST(CanonicalText, DoubleMatchesPrintfOnSeededValues) {
  constexpr std::size_t kCount = 1'000'000;
  std::size_t mismatches = 0;
  for (const double v : seeded_doubles(20260501, kCount)) {
    const std::string want = printf_g17(v);
    const std::string got = canonical(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": \"" << got << "\" vs printf \"" << want << '"';
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << kCount;
}

TEST(CanonicalText, DoubleMatchesPrintfOnEdgeValues) {
  for (const double v : edge_doubles()) {
    EXPECT_EQ(canonical(v), printf_g17(v))
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(CanonicalText, IntegralDoublesMatchPrintf) {
  // Integral doubles below 2^53 in magnitude take the integer path; the
  // values at and past that edge, and -0.0, must still read as %.17g.
  constexpr double kTwoPow53 = 9007199254740992.0;
  std::vector<double> values = {
      0.0,           -0.0,         1.0,          -1.0,
      kTwoPow53 - 1, -(kTwoPow53 - 1), kTwoPow53, -kTwoPow53,
      kTwoPow53 + 2, -(kTwoPow53 + 2), 1e15,      1e16,
      1e17 - 16,     1e17,         123456789012345680.0};
  // Seeded integral values at every magnitude up to 2^63: a random 64-bit
  // integer shifted right by 0..63 bits, with a random sign.
  Rng rng{20261019};
  for (int shift = 0; shift < 64; ++shift) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t bits = rng.next_u64();
      const double mag = static_cast<double>(bits >> shift);
      values.push_back((bits & 1) != 0 ? -mag : mag);
    }
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    ASSERT_EQ(v, std::trunc(v));
    const std::string want = printf_g17(v);
    const std::string got = canonical(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": \"" << got << "\" vs printf \"" << want << '"';
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(CanonicalText, IntegersMatchPrintf) {
  for (const long long v : {0LL, 1LL, -1LL, 42LL, LLONG_MIN, LLONG_MAX}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", v);
    std::string got;
    append_canonical(got, v);
    EXPECT_EQ(got, buf);
  }
  for (const unsigned long long v : {0ULL, 1ULL, 2654435769ULL, ULLONG_MAX}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", v);
    std::string got;
    append_canonical(got, v);
    EXPECT_EQ(got, buf);
  }
}

TEST(CanonicalText, JsonlRoundTripsFiniteValuesBitExactly) {
  // Encode -> parse -> get_double must give back the same bits for every
  // finite value: a resumed sweep re-reads exactly what it wrote.
  std::vector<double> values = seeded_doubles(20260502, 200'000);
  values.insert(values.end(), edge_doubles().begin(), edge_doubles().end());
  std::size_t checked = 0;
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    JsonlRecord rec;
    rec.set("v", v);
    const auto back = JsonlRecord::parse(rec.encode());
    ASSERT_TRUE(back.has_value()) << rec.encode();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back->get_double("v", NAN)),
              std::bit_cast<std::uint64_t>(v))
        << rec.encode();
    ++checked;
  }
  EXPECT_GT(checked, 190'000u);
}

}  // namespace
}  // namespace bbrnash
