#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>

namespace paragraph::obs {

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

namespace {

using Members = std::vector<std::pair<std::string, JsonValue>>;

// Smaller objects are scanned and carry no index: most documents
// (requests, log records, histogram summaries) are that small.
constexpr std::size_t kIndexFrom = 16;

// The slot holding `key`'s position, or the empty slot where it would go.
// Linear probing over a power-of-two table that is at most half full, so
// an empty slot always ends the probe.
std::size_t slot_of(const std::vector<std::uint32_t>& index, const Members& obj,
                    std::string_view key) {
  const std::size_t mask = index.size() - 1;
  for (std::size_t s = std::hash<std::string_view>{}(key) & mask;; s = (s + 1) & mask)
    if (index[s] == 0 || obj[index[s] - 1].first == key) return s;
}

// Rebuilds `index` over `obj`, whose keys are distinct, at a load of at
// most one half. A doubling rebuild keeps `set` amortised O(1).
void rebuild_index(std::vector<std::uint32_t>& index, const Members& obj) {
  std::size_t slots = 2 * kIndexFrom;
  while (slots < 2 * obj.size()) slots *= 2;
  index.assign(slots, 0);
  for (std::size_t i = 0; i < obj.size(); ++i)
    index[slot_of(index, obj, obj[i].first)] = static_cast<std::uint32_t>(i + 1);
}

}  // namespace

JsonValue& JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != Kind::kObject) throw std::logic_error("JsonValue::set on non-object");
  if (index_.empty()) {
    for (auto& [k, existing] : obj_) {
      if (k == key) {
        existing = std::move(v);
        return *this;
      }
    }
    obj_.emplace_back(std::move(key), std::move(v));
    if (obj_.size() == kIndexFrom) rebuild_index(index_, obj_);
    return *this;
  }
  const std::size_t slot = slot_of(index_, obj_, key);
  if (index_[slot] != 0) {
    obj_[index_[slot] - 1].second = std::move(v);
    return *this;
  }
  obj_.emplace_back(std::move(key), std::move(v));
  if (2 * obj_.size() > index_.size())
    rebuild_index(index_, obj_);
  else
    index_[slot] = static_cast<std::uint32_t>(obj_.size());
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (index_.empty()) {
    for (const auto& [k, v] : obj_)
      if (k == key) return &v;
    return nullptr;
  }
  const std::uint32_t pos = index_[slot_of(index_, obj_, key)];
  return pos == 0 ? nullptr : &obj_[pos - 1].second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw std::out_of_range("JsonValue::at: no key '" + std::string(key) + "'");
  return *v;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) throw std::logic_error("JsonValue::push_back on non-array");
  arr_.push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return arr_.size();
  if (kind_ == Kind::kObject) return obj_.size();
  return 0;
}

void json_escape_to(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: {
      char buf[32];
      const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, int_);
      out.append(buf, p);
      break;
    }
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        out += "null";
        break;
      }
      char buf[64];
      const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, double_);
      out.append(buf, p);
      break;
    }
    case Kind::kString: json_escape_to(str_, out); break;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out.push_back(',');
        arr_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i != 0) out.push_back(',');
        json_escape_to(obj_[i].first, out);
        out.push_back(':');
        obj_[i].second.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// ------------------------------------------------------------ parser ----

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  void fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty())
      *error_ = msg + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("bad hex digit in \\u escape");
              return false;
            }
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as-is; the emitter never produces them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character"); return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    const std::size_t digits_start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == digits_start) {
      fail("malformed number");
      return false;
    }
    // JSON forbids leading zeros ("01"); a lone "0" is fine.
    if (text_[digits_start] == '0' && pos_ - digits_start > 1) {
      fail("leading zero in number");
      return false;
    }
    bool is_double = false;
    if (consume('.')) {
      is_double = true;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t iv = 0;
      const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        out = JsonValue(iv);
        return true;
      }
      // Fall through to double on overflow.
    }
    double dv = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), dv);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      fail("malformed number");
      return false;
    }
    out = JsonValue(dv);
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    if (c == 'n') {
      if (!parse_literal("null")) { fail("bad literal"); return false; }
      out = JsonValue();
      return true;
    }
    if (c == 't') {
      if (!parse_literal("true")) { fail("bad literal"); return false; }
      out = JsonValue(true);
      return true;
    }
    if (c == 'f') {
      if (!parse_literal("false")) { fail("bad literal"); return false; }
      out = JsonValue(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = JsonValue(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos_;
      out = JsonValue::array();
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        JsonValue elem;
        if (!parse_value(elem, depth + 1)) return false;
        out.push_back(std::move(elem));
        skip_ws();
        if (consume(']')) return true;
        if (!consume(',')) {
          fail("expected ',' or ']' in array");
          return false;
        }
      }
    }
    if (c == '{') {
      ++pos_;
      out = JsonValue::object();
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) {
          fail("expected ':' in object");
          return false;
        }
        JsonValue val;
        if (!parse_value(val, depth + 1)) return false;
        out.set(std::move(key), std::move(val));
        skip_ws();
        if (consume('}')) return true;
        if (!consume(',')) {
          fail("expected ',' or '}' in object");
          return false;
        }
      }
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    fail("unexpected character");
    return false;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).run();
}

}  // namespace paragraph::obs
