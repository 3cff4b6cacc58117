#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace paragraph::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size())
    throw std::invalid_argument("Table::add_row: cell count does not match header");
  rows_.push_back(std::move(cells));
}

void Table::add_row(const std::string& label, const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) {
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    cells.push_back(ss.str());
  }
  add_row(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c)
      os << " " << std::left << std::setw(static_cast<int>(widths[c])) << row[c] << " |";
    os << "\n";
  };
  auto print_sep = [&] {
    os << "+";
    for (std::size_t c = 0; c < widths.size(); ++c) os << std::string(widths[c] + 2, '-') << "+";
    os << "\n";
  };

  print_sep();
  print_row(header_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

}  // namespace paragraph::util
