#include "paper/experiments/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/check.h"

namespace dphist {

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  DPHIST_CHECK(!columns_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> fields) {
  DPHIST_CHECK_MSG(fields.size() == columns_.size(),
                   "row width does not match the header");
  rows_.push_back(std::move(fields));
}

void TablePrinter::Print(std::ostream& out) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& fields) {
    for (std::size_t c = 0; c < fields.size(); ++c) {
      out << fields[c];
      if (c + 1 < fields.size()) {
        out << std::string(widths[c] - fields[c].size() + 2, ' ');
      }
    }
    out << "\n";
  };
  print_row(columns_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string FormatScientific(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

std::string FormatFixed(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  std::string s = buf;
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string FormatRatio(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", value);
  return buf;
}

void PrintBanner(std::ostream& out, const std::string& title) {
  out << "\n== " << title << " ==\n";
}

Status AppendCsvRow(const std::string& path, const std::string& header,
                    const std::vector<std::string>& fields) {
  bool exists = false;
  {
    std::ifstream probe(path);
    exists = probe.good();
  }
  std::ofstream out(path, std::ios::app);
  if (!out) return Status::IoError("cannot open for appending: " + path);
  if (!exists && !header.empty()) out << header << "\n";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out << fields[i] << (i + 1 < fields.size() ? "," : "");
  }
  out << "\n";
  if (!out) return Status::IoError("append failed: " + path);
  return Status::Ok();
}

}  // namespace dphist
