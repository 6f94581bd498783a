#include "mechanism/laplace_mechanism.h"

#include "common/check.h"

namespace dphist {

LaplaceMechanism::LaplaceMechanism(double epsilon) : epsilon_(epsilon) {
  DPHIST_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
}

double LaplaceMechanism::NoiseScale(const QuerySequence& query) const {
  return query.Sensitivity() / epsilon_;
}

std::vector<double> LaplaceMechanism::AnswerQuery(const QuerySequence& query,
                                                  const Histogram& data,
                                                  Rng* rng) const {
  return Perturb(query.Evaluate(data), NoiseScale(query), rng);
}

std::vector<double> LaplaceMechanism::Perturb(std::vector<double> answers,
                                              double noise_scale,
                                              Rng* rng) const {
  PerturbInPlace(&answers, noise_scale, rng);
  return answers;
}

void LaplaceMechanism::PerturbInPlace(std::vector<double>* answers,
                                      double noise_scale, Rng* rng) const {
  DPHIST_CHECK(answers != nullptr);
  DPHIST_CHECK(rng != nullptr);
  LaplaceDistribution noise(noise_scale);
  noise.AddSamplesTo(answers->data(), answers->size(), rng);
}

}  // namespace dphist
