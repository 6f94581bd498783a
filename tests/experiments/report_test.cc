#include "paper/experiments/report.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dphist {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"dataset", "eps", "error"});
  table.AddRow({"NetTrace", "1.0", "12.5"});
  table.AddRow({"SearchLogs", "0.01", "3"});
  std::ostringstream out;
  table.Print(out);
  std::string text = out.str();
  // Header present, separator present, both rows present.
  EXPECT_NE(text.find("dataset"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_NE(text.find("NetTrace"), std::string::npos);
  EXPECT_NE(text.find("SearchLogs"), std::string::npos);
  // Columns align: "eps" starts at the same offset in header and rows.
  std::istringstream lines(text);
  std::string header, sep, row1, row2;
  std::getline(lines, header);
  std::getline(lines, sep);
  std::getline(lines, row1);
  std::getline(lines, row2);
  std::size_t eps_col = header.find("eps");
  EXPECT_EQ(row1.find("1.0"), eps_col);
  EXPECT_EQ(row2.find("0.01"), eps_col);
}

TEST(TablePrinterTest, EmptyTableStillPrintsHeader) {
  TablePrinter table({"a"});
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find('a'), std::string::npos);
}

TEST(TablePrinterDeathTest, RowWidthMismatch) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "row width");
}

TEST(FormatTest, Scientific) {
  EXPECT_EQ(FormatScientific(12345.0), "1.23e+04");
  EXPECT_EQ(FormatScientific(0.5), "0.5");
}

TEST(FormatTest, FixedTrimsZeros) {
  EXPECT_EQ(FormatFixed(1.5), "1.5");
  EXPECT_EQ(FormatFixed(2.0), "2");
  EXPECT_EQ(FormatFixed(0.1235), "0.1235");
}

TEST(FormatTest, Ratio) { EXPECT_EQ(FormatRatio(9.333), "9.33x"); }

TEST(BannerTest, WrapsTitle) {
  std::ostringstream out;
  PrintBanner(out, "Figure 5");
  EXPECT_EQ(out.str(), "\n== Figure 5 ==\n");
}

}  // namespace
}  // namespace dphist
