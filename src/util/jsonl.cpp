#include "util/jsonl.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/canonical_text.hpp"

namespace bbrnash {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[pos])) != 0) {
      ++pos;
    }
  }
  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }
  bool eat(char c) {
    if (done() || text[pos] != c) return false;
    ++pos;
    return true;
  }
};

bool parse_quoted(Cursor& cur, std::string* out) {
  if (!cur.eat('"')) return false;
  out->clear();
  while (!cur.done()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return true;
    if (c != '\\') {
      *out += c;
      continue;
    }
    if (cur.done()) return false;
    const char esc = cur.text[cur.pos++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        *out += esc;
        break;
      case 'n':
        *out += '\n';
        break;
      case 't':
        *out += '\t';
        break;
      case 'r':
        *out += '\r';
        break;
      case 'b':
        *out += '\b';
        break;
      case 'f':
        *out += '\f';
        break;
      case 'u': {
        if (cur.pos + 4 > cur.text.size()) return false;
        char hex[5] = {cur.text[cur.pos], cur.text[cur.pos + 1],
                       cur.text[cur.pos + 2], cur.text[cur.pos + 3], '\0'};
        cur.pos += 4;
        char* end = nullptr;
        // bbrnash-lint: allow(raw-parse) -- fixed 4-hex-digit \u escape;
        // end-pointer checked against exactly hex+4 on the next line.
        const unsigned long code = std::strtoul(hex, &end, 16);
        if (end != hex + 4 || code > 0x7F) return false;  // ASCII only
        *out += static_cast<char>(code);
        break;
      }
      default:
        return false;
    }
  }
  return false;  // unterminated string
}

}  // namespace

void JsonlRecord::set(const std::string& key, std::string v) {
  Value val;
  val.kind = Value::Kind::kString;
  val.s = std::move(v);
  fields_[key] = std::move(val);
}

void JsonlRecord::set(const std::string& key, double v) {
  Value val;
  val.kind = Value::Kind::kDouble;
  val.d = v;
  fields_[key] = val;
}

void JsonlRecord::set(const std::string& key, std::uint64_t v) {
  Value val;
  val.kind = Value::Kind::kU64;
  val.u = v;
  fields_[key] = val;
}

bool JsonlRecord::has(const std::string& key) const {
  return fields_.count(key) != 0;
}

std::string JsonlRecord::get_string(const std::string& key,
                                    std::string fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end() || it->second.kind != Value::Kind::kString) {
    return fallback;
  }
  return it->second.s;
}

double JsonlRecord::get_double(const std::string& key, double fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  switch (it->second.kind) {
    case Value::Kind::kDouble:
      return it->second.d;
    case Value::Kind::kU64:
      return static_cast<double>(it->second.u);
    case Value::Kind::kString:
      return fallback;
  }
  return fallback;
}

std::uint64_t JsonlRecord::get_u64(const std::string& key,
                                   std::uint64_t fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end() || it->second.kind != Value::Kind::kU64) {
    return fallback;
  }
  return it->second.u;
}

std::string JsonlRecord::encode() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, val] : fields_) {
    if (!first) out += ",";
    first = false;
    append_escaped(out, key);
    out += ":";
    switch (val.kind) {
      case Value::Kind::kString:
        append_escaped(out, val.s);
        break;
      case Value::Kind::kU64:
        append_canonical(out, static_cast<unsigned long long>(val.u));
        break;
      case Value::Kind::kDouble:
        append_canonical(out, val.d);
        break;
    }
  }
  out += "}";
  return out;
}

std::optional<JsonlRecord> JsonlRecord::parse(std::string_view line) {
  Cursor cur{line};
  cur.skip_ws();
  if (!cur.eat('{')) return std::nullopt;
  JsonlRecord rec;
  cur.skip_ws();
  if (cur.eat('}')) {
    cur.skip_ws();
    return cur.done() ? std::optional<JsonlRecord>{rec} : std::nullopt;
  }
  while (true) {
    cur.skip_ws();
    std::string key;
    if (!parse_quoted(cur, &key)) return std::nullopt;
    cur.skip_ws();
    if (!cur.eat(':')) return std::nullopt;
    cur.skip_ws();
    if (cur.done()) return std::nullopt;
    if (cur.peek() == '"') {
      std::string value;
      if (!parse_quoted(cur, &value)) return std::nullopt;
      rec.set(key, std::move(value));
    } else {
      // Number token: everything up to the next ',' / '}' / whitespace.
      const std::size_t start = cur.pos;
      while (!cur.done() && cur.peek() != ',' && cur.peek() != '}' &&
             std::isspace(static_cast<unsigned char>(cur.peek())) == 0) {
        ++cur.pos;
      }
      const std::string token{cur.text.substr(start, cur.pos - start)};
      if (token.empty()) return std::nullopt;
      const bool integral =
          token.find_first_not_of("0123456789") == std::string::npos;
      if (integral) {
        errno = 0;
        char* end = nullptr;
        // bbrnash-lint: allow(raw-parse) -- this IS the checkpoint JSON
        // number parser; whole-token + errno checked immediately below.
        const std::uint64_t u = std::strtoull(token.c_str(), &end, 10);
        if (errno != 0 || end != token.c_str() + token.size()) {
          return std::nullopt;
        }
        rec.set(key, u);
      } else {
        errno = 0;
        char* end = nullptr;
        // bbrnash-lint: allow(raw-parse) -- this IS the checkpoint JSON
        // number parser; whole-token consumption checked on the next line.
        const double d = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) return std::nullopt;
        rec.set(key, d);
      }
    }
    cur.skip_ws();
    if (cur.eat('}')) break;
    if (!cur.eat(',')) return std::nullopt;
  }
  cur.skip_ws();
  if (!cur.done()) return std::nullopt;
  return rec;
}

bool JsonlRecord::operator==(const JsonlRecord& other) const {
  return fields_ == other.fields_;
}

void append_jsonl_line(const std::string& path, const std::string& line) {
  // If a previous writer crashed mid-append the file ends in a torn,
  // unterminated line; appending straight after it would glue the new
  // record onto the garbage and lose both. Start on a fresh line instead —
  // the torn line stays unparseable and is skipped on read.
  bool needs_newline = false;
  {
    std::ifstream probe{path, std::ios::binary};
    if (probe) {
      probe.seekg(0, std::ios::end);
      if (probe.tellg() > 0) {
        probe.seekg(-1, std::ios::end);
        needs_newline = probe.get() != '\n';
      }
    }
  }
  std::ofstream out{path, std::ios::app};
  if (!out) {
    throw std::runtime_error{"cannot open checkpoint file for append: " +
                             path};
  }
  if (needs_newline) out << '\n';
  out << line << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error{"failed writing checkpoint file: " + path};
  }
}

std::vector<JsonlRecord> read_jsonl(const std::string& path,
                                    std::size_t* skipped) {
  std::vector<JsonlRecord> out;
  if (skipped != nullptr) *skipped = 0;
  std::ifstream in{path};
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    if (auto rec = JsonlRecord::parse(line)) {
      out.push_back(std::move(*rec));
    } else if (skipped != nullptr &&
               line.find_first_not_of(" \t\r") != std::string::npos) {
      ++*skipped;
    }
  }
  return out;
}

}  // namespace bbrnash
