// Aligned ASCII table writer used by the bench binaries to print
// paper-vs-measured rows.
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace flashflow::metrics {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; pads/truncates to the header width.
  void add_row(std::vector<std::string> cells);

  /// Formats a double with the given precision (helper for call sites).
  static std::string num(double v, int precision = 2);
  /// Formats a percentage (value in [0,1] -> "x.y%").
  static std::string pct(double fraction, int precision = 1);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner used to delimit bench output blocks.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace flashflow::metrics
