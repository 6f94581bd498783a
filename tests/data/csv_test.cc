#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "paper/experiments/report.h"

namespace dphist {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CsvTest, SaveLoadRoundTrip) {
  Histogram original({1.5, 0.0, 42.0, 3.25}, "src");
  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveHistogramCsv(original, path).ok());
  auto loaded = LoadHistogramCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().counts(), original.counts());
  EXPECT_EQ(loaded.value().domain().attribute(), "src");
  std::remove(path.c_str());
}

TEST(CsvTest, LoadSkipsCommentsAndBlanks) {
  std::string path = TempPath("comments.csv");
  {
    std::ofstream out(path);
    out << "# a comment\n\n1\n# another\n2\n\n3\n";
  }
  auto loaded = LoadHistogramCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().counts(), (std::vector<double>{1, 2, 3}));
  std::remove(path.c_str());
}

TEST(CsvTest, LoadMissingFileFails) {
  auto loaded = LoadHistogramCsv(TempPath("does_not_exist.csv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, LoadRejectsGarbage) {
  std::string path = TempPath("garbage.csv");
  {
    std::ofstream out(path);
    out << "1\nnot-a-number\n3\n";
  }
  auto loaded = LoadHistogramCsv(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CsvTest, LoadEmptyFileFails) {
  std::string path = TempPath("empty.csv");
  { std::ofstream out(path); }
  auto loaded = LoadHistogramCsv(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CsvTest, AppendRowCreatesHeaderOnce) {
  std::string path = TempPath("rows.csv");
  std::remove(path.c_str());
  ASSERT_TRUE(AppendCsvRow(path, "a,b", {"1", "2"}).ok());
  ASSERT_TRUE(AppendCsvRow(path, "a,b", {"3", "4"}).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dphist
