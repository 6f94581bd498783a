// The Laplace mechanism (Dwork et al. 2006; Proposition 1 of the paper).
//
// For a query sequence Q with sensitivity Delta-Q, the randomized answer
//   Q~(I) = Q(I) + <Lap(Delta-Q / epsilon)>^d
// is epsilon-differentially private. This is the *only* place dphist
// touches the private data with randomness; everything downstream
// (constrained inference, range engines) is post-processing and cannot
// weaken the guarantee (Proposition 2).

#ifndef DPHIST_MECHANISM_LAPLACE_MECHANISM_H_
#define DPHIST_MECHANISM_LAPLACE_MECHANISM_H_

#include <vector>

#include "common/laplace.h"
#include "common/rng.h"
#include "domain/histogram.h"
#include "query/query_sequence.h"

namespace dphist {

/// Answers query sequences under epsilon-differential privacy.
class LaplaceMechanism {
 public:
  /// Constructs a mechanism with privacy parameter epsilon > 0.
  explicit LaplaceMechanism(double epsilon);

  /// The privacy parameter.
  double epsilon() const { return epsilon_; }

  /// The noise scale b = Delta-Q / epsilon used for `query`.
  double NoiseScale(const QuerySequence& query) const;

  /// Evaluates `query` on `data` and perturbs each answer with i.i.d.
  /// Laplace noise scaled to the query's sensitivity.
  std::vector<double> AnswerQuery(const QuerySequence& query,
                                  const Histogram& data, Rng* rng) const;

  /// Adds Laplace noise with the given scale to every component of
  /// `answers`; exposed for callers that evaluate queries themselves.
  /// Takes the vector by value and perturbs it in place: pass an rvalue
  /// (as AnswerQuery does) and the whole operation is copy-free.
  std::vector<double> Perturb(std::vector<double> answers, double noise_scale,
                              Rng* rng) const;

  /// In-place form for callers that own a reusable buffer.
  void PerturbInPlace(std::vector<double>* answers, double noise_scale,
                      Rng* rng) const;

 private:
  double epsilon_;
};

}  // namespace dphist

#endif  // DPHIST_MECHANISM_LAPLACE_MECHANISM_H_
