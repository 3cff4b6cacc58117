#include "util/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace paragraph::util {

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && delims.find(s[i]) != std::string_view::npos) ++i;
    std::size_t j = i;
    while (j < s.size() && delims.find(s[j]) == std::string_view::npos) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

bool parse_spice_number(std::string_view token, double& out) {
  if (token.empty()) return false;
  std::string t = to_lower(token);
  // Strip trailing unit words that SPICE tolerates (e.g. "10pf", "1kohm").
  double scale = 1.0;
  std::size_t num_end = 0;
  {
    const char* begin = t.c_str();
    char* end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin) return false;
    num_end = static_cast<std::size_t>(end - begin);
  }
  std::string suffix = t.substr(num_end);
  if (starts_with(suffix, "meg")) {
    scale = 1e6;
  } else if (!suffix.empty()) {
    switch (suffix[0]) {
      case 't': scale = 1e12; break;
      case 'g': scale = 1e9; break;
      case 'k': scale = 1e3; break;
      case 'm': scale = 1e-3; break;
      case 'u': scale = 1e-6; break;
      case 'n': scale = 1e-9; break;
      case 'p': scale = 1e-12; break;
      case 'f': scale = 1e-15; break;
      case 'a': scale = 1e-18; break;
      default: return false;  // unknown suffix, reject
    }
  }
  out *= scale;
  return true;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

}  // namespace paragraph::util
