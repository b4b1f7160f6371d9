#include "metrics/table.h"

#include <algorithm>
#include <cstdio>

namespace flashflow::metrics {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };
  const auto print_rule = [&] {
    os << "+";
    for (const std::size_t w : widths) os << std::string(w + 2, '-') << "+";
    os << '\n';
  };

  print_rule();
  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << std::string(72, '=') << '\n'
     << "  " << title << '\n'
     << std::string(72, '=') << '\n';
}

}  // namespace flashflow::metrics
