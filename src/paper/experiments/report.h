// Plain-text table rendering for the bench binaries.
//
// Every bench prints the same rows/series its paper figure shows; this
// module keeps the formatting consistent (fixed-width columns, scientific
// notation for errors) so outputs are easy to diff across runs.

#ifndef DPHIST_PAPER_EXPERIMENTS_REPORT_H_
#define DPHIST_PAPER_EXPERIMENTS_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace dphist {

/// Column-aligned text table.
class TablePrinter {
 public:
  /// Sets the header row.
  explicit TablePrinter(std::vector<std::string> columns);

  /// Adds one row; must have as many fields as there are columns.
  void AddRow(std::vector<std::string> fields);

  /// Renders header, separator, and rows.
  void Print(std::ostream& out) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Scientific formatting with 3 significant digits ("1.23e+04").
std::string FormatScientific(double value);

/// Fixed formatting with up to 4 decimals, trimming trailing zeros.
std::string FormatFixed(double value);

/// Renders a ratio as "12.3x".
std::string FormatRatio(double value);

/// Prints a banner line ("== title ==") for bench section headers.
void PrintBanner(std::ostream& out, const std::string& title);

/// Appends a comma-joined row to an open text file at `path` (creating it
/// with `header` if absent). Used by benches to export plot data.
Status AppendCsvRow(const std::string& path, const std::string& header,
                    const std::vector<std::string>& fields);

}  // namespace dphist

#endif  // DPHIST_PAPER_EXPERIMENTS_REPORT_H_
