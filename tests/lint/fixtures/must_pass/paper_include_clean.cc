// must-pass fixture: paper-include. Linted as src/paper/experiments/
// sweep.cc — a src/paper/ source may include other paper headers and
// any core header. Never compiled.

// #include "paper/linalg/matrix.h" in a comment is not an include.
#include "estimators/universal.h"
#include "paper/analysis/strategy_matrix.h"
#include "paper/experiments/runner.h"
