// Minimal flat JSONL records for crash-safe experiment checkpoints.
//
// One record = one flat JSON object on one line. Values are strings,
// unsigned integers or doubles; doubles are printed as %.17g
// (util/canonical_text.hpp) so a written value parses back
// bit-identically — a resumed sweep must reproduce the uninterrupted
// run's numbers exactly. This is deliberately
// not a general JSON library (no nesting, no arrays): checkpoints don't
// need them, and a handwritten flat parser is easy to make robust against
// the one corruption mode that matters — a partial trailing line left by
// a crash mid-append, which read_jsonl simply skips.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bbrnash {

class JsonlRecord {
 public:
  void set(const std::string& key, std::string v);
  void set(const std::string& key, const char* v) { set(key, std::string{v}); }
  /// For std::string_view values — notably the schema constants from
  /// util/schemas.hpp.
  void set(const std::string& key, std::string_view v) {
    set(key, std::string{v});
  }
  void set(const std::string& key, double v);
  void set(const std::string& key, std::uint64_t v);
  /// Convenience for non-negative counters; throws std::invalid_argument on
  /// a negative value rather than silently storing a huge unsigned one.
  void set(const std::string& key, int v) {
    if (v < 0) {
      throw std::invalid_argument{"JsonlRecord::set: negative value for '" +
                                  key + "' (records store unsigned counters)"};
    }
    set(key, static_cast<std::uint64_t>(v));
  }

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback = "") const;
  /// Integer-valued fields coerce to double (e.g. "42" written for 42.0).
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback = 0.0) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback = 0) const;

  /// One JSON object, keys in sorted order (stable for diffing logs).
  [[nodiscard]] std::string encode() const;
  /// nullopt for anything that is not one complete flat JSON object.
  static std::optional<JsonlRecord> parse(std::string_view line);

  [[nodiscard]] bool operator==(const JsonlRecord& other) const;

 private:
  struct Value {
    enum class Kind { kString, kU64, kDouble };
    Kind kind = Kind::kString;
    std::string s;
    std::uint64_t u = 0;
    double d = 0.0;

    bool operator==(const Value& o) const {
      return kind == o.kind && s == o.s && u == o.u && d == o.d;
    }
  };
  std::map<std::string, Value> fields_;
};

/// Appends one line (a '\n' is added) to `path`, creating it if needed,
/// and flushes. Throws std::runtime_error when the file cannot be written.
void append_jsonl_line(const std::string& path, const std::string& line);

/// Reads every parseable record from `path`. A missing file yields an empty
/// vector; unparseable lines (including a torn trailing write) are skipped.
/// When `skipped` is non-null it receives the count of non-empty lines that
/// failed to parse, so callers can warn about torn/corrupt records instead
/// of silently losing them.
std::vector<JsonlRecord> read_jsonl(const std::string& path,
                                    std::size_t* skipped = nullptr);

}  // namespace bbrnash
