#ifndef CHAMELEON_CORE_REJECTION_SAMPLER_H_
#define CHAMELEON_CORE_REJECTION_SAMPLER_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/fm/evaluator_pool.h"
#include "src/stats/t_test.h"
#include "src/svm/one_class_svm.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::core {

/// Configuration of the two rejection tests (§3).
struct RejectionSamplerOptions {
  /// Data distribution test (§3.1): OCSVM over embeddings; the paper
  /// evaluates nu = 0.3 with linear and RBF kernels.
  svm::OneClassSvmOptions svm;
  /// Quality test (§3.2) significance level alpha. 0.1 ~ majority vote,
  /// 0.4 ~ unanimity (Table 4 evaluates both).
  double quality_alpha = 0.1;
  /// N: the small fixed evaluation budget per generated tuple.
  int evaluations_per_tuple = 5;
};

/// Joint outcome of one generated tuple's rejection-sampling round.
struct RejectionOutcome {
  bool distribution_pass = false;
  bool quality_pass = false;
  double decision_value = 0.0;  // OCSVM f(v)
  double quality_p_value = 1.0;

  bool Passed() const { return distribution_pass && quality_pass; }
};

/// Implements §3: a generated tuple is accepted only if it passes the
/// OCSVM data distribution test AND the t-test-based quality test against
/// the real-tuple label rate p.
class RejectionSampler {
 public:
  /// Trains the OCSVM on the real tuples' embeddings and fixes p (the
  /// estimated rate at which evaluators label real tuples realistic).
  [[nodiscard]] static util::Result<RejectionSampler> Train(
      const std::vector<std::vector<double>>& real_embeddings,
      const fm::EvaluatorPool* evaluators, double real_label_rate_p,
      const RejectionSamplerOptions& options);

  /// A sampler over an already-trained OCSVM, shared read-only (the
  /// serving layer trains one per dataset world and reuses it across
  /// requests). Equivalent to Train when `svm_model` is what Train would
  /// have trained under `options.svm`.
  [[nodiscard]] static util::Result<RejectionSampler> FromModel(
      std::shared_ptr<const svm::OneClassSvm> svm_model,
      const fm::EvaluatorPool* evaluators, double real_label_rate_p,
      const RejectionSamplerOptions& options);

  /// The data distribution test alone.
  bool DistributionTest(const std::vector<double>& embedding) const;

  /// The quality test alone: draws N evaluator labels for a tuple of the
  /// given latent realism and runs the lower-tail t-test against p.
  stats::TTestResult QualityTest(double latent_realism, util::Rng* rng) const;

  /// Draws the N evaluator labels for one tuple — the only rng-consuming
  /// part of Evaluate, split out so a batched pipeline can draw labels
  /// serially (preserving the master rng stream) and run the pure
  /// EvaluateWithLabels part concurrently.
  std::vector<int> DrawQualityLabels(double latent_realism,
                                     util::Rng* rng) const;

  /// Both tests on pre-drawn labels. Pure and thread-safe: no rng, no
  /// mutable state.
  RejectionOutcome EvaluateWithLabels(const std::vector<double>& embedding,
                                      const std::vector<int>& labels) const;

  /// Both tests. Equivalent to EvaluateWithLabels(embedding,
  /// DrawQualityLabels(latent_realism, rng)).
  RejectionOutcome Evaluate(const std::vector<double>& embedding,
                            double latent_realism, util::Rng* rng) const;

  const svm::OneClassSvm& svm_model() const { return *svm_; }
  double real_label_rate() const { return p_; }
  const RejectionSamplerOptions& options() const { return options_; }

 private:
  RejectionSampler(std::shared_ptr<const svm::OneClassSvm> svm_model,
                   const fm::EvaluatorPool* evaluators, double p,
                   RejectionSamplerOptions options)
      : svm_(std::move(svm_model)),
        evaluators_(evaluators),
        p_(p),
        options_(options) {}

  std::shared_ptr<const svm::OneClassSvm> svm_;
  const fm::EvaluatorPool* evaluators_;
  double p_;
  RejectionSamplerOptions options_;
};

}  // namespace chameleon::core

#endif  // CHAMELEON_CORE_REJECTION_SAMPLER_H_
