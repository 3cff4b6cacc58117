// Small string helpers used by the SPICE parser and table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace paragraph::util {

// Split on any run of characters from `delims`; empty tokens are dropped.
std::vector<std::string> split(std::string_view s, std::string_view delims = " \t");

std::string trim(std::string_view s);
std::string to_lower(std::string_view s);
bool starts_with(std::string_view s, std::string_view prefix);
bool iequals(std::string_view a, std::string_view b);

// Parse a SPICE-style number with engineering suffix: 1.5k, 2u, 3.3meg,
// 10f, 4n, 0.5p, 7m, 2x (=meg in some dialects is rejected; x unsupported).
// Returns true on success.
bool parse_spice_number(std::string_view token, double& out);

// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace paragraph::util
