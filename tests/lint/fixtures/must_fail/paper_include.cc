// must-fail fixture: paper-include. Linted as src/planner/oracle.cc — a
// dphist_core source that includes a src/paper/ header must be flagged:
// the server would link paper-only code. Never compiled.

#include "paper/analysis/strategy_matrix.h"
#include "planner/recurrence_oracle.h"
