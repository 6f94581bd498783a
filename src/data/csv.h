// CSV persistence for histograms.
//
// Deliberately tiny: one numeric column for histogram counts (with an
// optional header).

#ifndef DPHIST_DATA_CSV_H_
#define DPHIST_DATA_CSV_H_

#include <string>

#include "common/status.h"
#include "domain/histogram.h"

namespace dphist {

/// Writes one count per line (optionally preceded by "# attribute: name").
Status SaveHistogramCsv(const Histogram& histogram, const std::string& path);

/// Reads a histogram written by SaveHistogramCsv. Lines beginning with '#'
/// are comments; blank lines are skipped.
Result<Histogram> LoadHistogramCsv(const std::string& path);

}  // namespace dphist

#endif  // DPHIST_DATA_CSV_H_
