#include "src/core/rejection_sampler.h"

#include <memory>
#include <utility>

namespace chameleon::core {

namespace {

util::Status CheckSamplerInputs(const fm::EvaluatorPool* evaluators,
                                double real_label_rate_p) {
  if (evaluators == nullptr) {
    return util::Status::InvalidArgument("evaluator pool is required");
  }
  if (real_label_rate_p <= 0.0 || real_label_rate_p > 1.0) {
    return util::Status::InvalidArgument("p must be in (0, 1]");
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<RejectionSampler> RejectionSampler::Train(
    const std::vector<std::vector<double>>& real_embeddings,
    const fm::EvaluatorPool* evaluators, double real_label_rate_p,
    const RejectionSamplerOptions& options) {
  CHAMELEON_RETURN_NOT_OK(CheckSamplerInputs(evaluators, real_label_rate_p));
  auto svm_model = svm::OneClassSvm::Train(real_embeddings, options.svm);
  if (!svm_model.ok()) return svm_model.status();
  return RejectionSampler(
      std::make_shared<const svm::OneClassSvm>(*std::move(svm_model)),
      evaluators, real_label_rate_p, options);
}

util::Result<RejectionSampler> RejectionSampler::FromModel(
    std::shared_ptr<const svm::OneClassSvm> svm_model,
    const fm::EvaluatorPool* evaluators, double real_label_rate_p,
    const RejectionSamplerOptions& options) {
  CHAMELEON_RETURN_NOT_OK(CheckSamplerInputs(evaluators, real_label_rate_p));
  if (svm_model == nullptr) {
    return util::Status::InvalidArgument("a trained OCSVM is required");
  }
  return RejectionSampler(std::move(svm_model), evaluators, real_label_rate_p,
                          options);
}

bool RejectionSampler::DistributionTest(
    const std::vector<double>& embedding) const {
  return svm_->Accepts(embedding);
}

stats::TTestResult RejectionSampler::QualityTest(double latent_realism,
                                                 util::Rng* rng) const {
  return stats::OneSampleTTestLower(DrawQualityLabels(latent_realism, rng),
                                    p_);
}

std::vector<int> RejectionSampler::DrawQualityLabels(double latent_realism,
                                                     util::Rng* rng) const {
  return evaluators_->Evaluate(latent_realism,
                               options_.evaluations_per_tuple, rng);
}

RejectionOutcome RejectionSampler::EvaluateWithLabels(
    const std::vector<double>& embedding,
    const std::vector<int>& labels) const {
  RejectionOutcome outcome;
  outcome.decision_value = svm_->DecisionValue(embedding);
  // The SVM owns the acceptance rule; comparing against a literal 0 here
  // would diverge from DistributionTest whenever the configured
  // decision_threshold is non-zero.
  outcome.distribution_pass = svm_->Accepts(outcome.decision_value);
  const stats::TTestResult t = stats::OneSampleTTestLower(labels, p_);
  outcome.quality_p_value = t.p_value;
  outcome.quality_pass = !t.Rejects(options_.quality_alpha);
  return outcome;
}

RejectionOutcome RejectionSampler::Evaluate(
    const std::vector<double>& embedding, double latent_realism,
    util::Rng* rng) const {
  return EvaluateWithLabels(embedding,
                            DrawQualityLabels(latent_realism, rng));
}

}  // namespace chameleon::core
