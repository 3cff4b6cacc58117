// Minimal JSON value: build, serialise, and parse.
//
// The observability layer emits machine-readable artefacts (metrics
// dumps, Chrome trace files, JSONL log records) and the tests parse them
// back to guard well-formedness, so both directions live here. Objects
// preserve insertion order to keep dumps diffable across runs.
//
// From 16 members on, an object keeps a hash index of member positions
// beside them, so `set` and `find` take expected O(1) time and `parse`
// runs in time linear in its input. A repeated key, through `set` or in
// parsed text, keeps its first position and takes the last value. The
// index hashes with std::hash, which is not keyed: keys crafted to
// collide would make lookups linear again.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paragraph::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;  // null
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(long v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(long long v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(unsigned v) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  JsonValue(unsigned long v) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  JsonValue(unsigned long long v) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kInt || kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  // Doubles saturate to the int64 range (NaN -> 0): values parsed off the
  // wire can be arbitrary (e.g. 1e300) and an out-of-range double->int
  // cast is undefined behavior, so it must never be reachable from here.
  std::int64_t as_int() const {
    if (kind_ != Kind::kDouble) return int_;
    constexpr double kLo = -9223372036854775808.0;  // -2^63, exactly representable
    constexpr double kHi = 9223372036854775808.0;   // 2^63 (first double > int64 max)
    if (double_ != double_) return 0;
    if (double_ >= kHi) return std::numeric_limits<std::int64_t>::max();
    if (double_ < kLo) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(double_);
  }
  double as_double() const { return kind_ == Kind::kInt ? static_cast<double>(int_) : double_; }
  const std::string& as_string() const { return str_; }

  // Object access. `set` overwrites an existing key in place, keeping its
  // position.
  JsonValue& set(std::string key, JsonValue v);
  const JsonValue* find(std::string_view key) const;  // nullptr when absent
  const JsonValue& at(std::string_view key) const;    // throws std::out_of_range
  const std::vector<std::pair<std::string, JsonValue>>& items() const { return obj_; }

  // Array access.
  void push_back(JsonValue v);
  const std::vector<JsonValue>& elements() const { return arr_; }
  const JsonValue& operator[](std::size_t i) const { return arr_.at(i); }

  // Array length or object member count; 0 for scalars.
  std::size_t size() const;

  // Compact serialisation (no whitespace). Non-finite doubles emit null.
  std::string dump() const;
  void dump_to(std::string& out) const;

  // Strict JSON parser. Returns nullopt (and fills `error`, if given) on
  // malformed input, including trailing garbage.
  static std::optional<JsonValue> parse(std::string_view text, std::string* error = nullptr);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
  // Open-addressed index over obj_ (see json.cpp): each slot holds a
  // member's position + 1, or 0 when empty. Positions, not views, so it
  // survives obj_ reallocating and the default copy and move stay right.
  std::vector<std::uint32_t> index_;
};

// Escapes and quotes `s` as a JSON string literal.
void json_escape_to(std::string_view s, std::string& out);

}  // namespace paragraph::obs
