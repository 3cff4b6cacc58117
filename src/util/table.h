// ASCII table rendering for bench output (paper-style tables).
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace paragraph::util {

// Accumulates rows of strings and prints them column-aligned:
//
//   Table t({"model", "R2", "MAE"});
//   t.add_row({"ParaGraph", "0.772", "0.85"});
//   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  // Convenience: formats doubles with the given precision.
  void add_row(const std::string& label, const std::vector<double>& values, int precision = 4);

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace paragraph::util
