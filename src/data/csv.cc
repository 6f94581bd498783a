#include "data/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dphist {

Status SaveHistogramCsv(const Histogram& histogram, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "# attribute: " << histogram.domain().attribute() << "\n";
  for (double c : histogram.counts()) out << c << "\n";
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<Histogram> LoadHistogramCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string attribute = "value";
  std::vector<double> counts;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::string kAttrPrefix = "# attribute: ";
      if (line.rfind(kAttrPrefix, 0) == 0) {
        attribute = line.substr(kAttrPrefix.size());
      }
      continue;
    }
    std::istringstream parse(line);
    double value = 0.0;
    if (!(parse >> value)) {
      return Status::IoError("unparseable line in " + path + ": " + line);
    }
    counts.push_back(value);
  }
  if (counts.empty()) return Status::IoError("no counts found in " + path);
  return Histogram(std::move(counts), std::move(attribute));
}

}  // namespace dphist
