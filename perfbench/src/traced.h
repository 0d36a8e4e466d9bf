#ifndef PERFBENCH_SRC_TRACED_H_
#define PERFBENCH_SRC_TRACED_H_

// The traced run's instruments. Layers are measured from outside by
// timing calls into their public functions: the injected interfaces
// (FoundationModel, Embedder, GuideSelector) get timing decorators, and
// the core stages come from a staged replay that calls them one by one
// in the order Chameleon::RepairMinLevelMups does. The untraced run uses
// none of this.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/chameleon.h"
#include "src/core/guide_selection.h"
#include "src/embedding/embedder.h"
#include "src/fm/corpus.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/foundation_model.h"

namespace perfbench {

/// Calls, items, failures and busy nanoseconds of one decorated layer.
/// Atomic: the pipeline may embed from worker threads.
struct LayerCounters {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> items{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> busy_ns{0};

  void Reset();
  double busy_ms() const { return static_cast<double>(busy_ns.load()) / 1e6; }
};

/// Times every Generate / GenerateBatch dispatch into the wrapped model
/// and forwards everything else unchanged.
class TimedModel : public chameleon::fm::FoundationModel {
 public:
  TimedModel(chameleon::fm::FoundationModel* inner, LayerCounters* counters)
      : inner_(inner), counters_(counters) {}

  [[nodiscard]] chameleon::util::Result<chameleon::fm::GenerationResult>
  Generate(const chameleon::fm::GenerationRequest& request,
           chameleon::util::Rng* rng) override;
  [[nodiscard]] std::vector<
      chameleon::util::Result<chameleon::fm::GenerationResult>>
  GenerateBatch(std::span<const chameleon::fm::BatchItem> items) override;

  double query_cost() const override { return inner_->query_cost(); }
  void ReportOutcome(int backend, bool accepted) override {
    inner_->ReportOutcome(backend, accepted);
  }
  void set_backend_router(chameleon::fm::BackendRouterKind kind) override {
    inner_->set_backend_router(kind);
  }
  void OnRunStart() override { inner_->OnRunStart(); }
  const chameleon::fm::FaultTelemetry* fault_telemetry() const override {
    return inner_->fault_telemetry();
  }
  void set_observability(chameleon::obs::Observability* obs) override {
    inner_->set_observability(obs);
  }
  void set_deadline(chameleon::fm::Deadline* deadline) override {
    inner_->set_deadline(deadline);
  }

 private:
  chameleon::fm::FoundationModel* inner_;
  LayerCounters* counters_;
};

/// Times every Embed call into the wrapped embedder.
class TimedEmbedder : public chameleon::embedding::Embedder {
 public:
  TimedEmbedder(const chameleon::embedding::Embedder* inner,
                LayerCounters* counters)
      : inner_(inner), counters_(counters) {}

  int dim() const override { return inner_->dim(); }
  std::vector<double> Embed(const chameleon::image::Image& image) const override;

 private:
  const chameleon::embedding::Embedder* inner_;
  LayerCounters* counters_;
};

/// Times every Select call into the wrapped guide selector (the bandit).
class TimedSelector : public chameleon::core::GuideSelector {
 public:
  TimedSelector(std::unique_ptr<chameleon::core::GuideSelector> inner,
                LayerCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  [[nodiscard]] chameleon::util::Result<chameleon::core::GuideChoice> Select(
      const chameleon::data::Dataset& dataset, const std::vector<int>& target,
      chameleon::util::Rng* rng) override;
  void ReportReward(const std::vector<int>& target,
                    const chameleon::core::GuideChoice& choice,
                    bool passed) override {
    inner_->ReportReward(target, choice, passed);
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<chameleon::core::GuideSelector> inner_;
  LayerCounters* counters_;
};

/// Wall time of each core stage of one staged repair, plus the coverage
/// figures of its MUP search.
struct StageTimes {
  double find_mups_ms = 0.0;          ///< counter build + FindMups + MinLevel
  double coverage_find_mups_ms = 0.0; ///< MupFinder::FindMups alone
  int64_t count_queries = 0;
  int64_t frontier_size = 0;
  double select_ms = 0.0;             ///< GreedySelect
  double estimate_p_ms = 0.0;         ///< EvaluatorPool::EstimateRealLabelRate
  double sampler_train_ms = 0.0;      ///< RejectionSampler::Train
  double generate_accepted_ms = 0.0;  ///< all GenerateAccepted calls
};

/// The decorated layers of one traced pipeline.
struct TracedLayers {
  LayerCounters fm;
  LayerCounters embed;
  LayerCounters bandit;
  void Reset();
};

/// Staged replay of Chameleon::RepairMinLevelMups: FindMups → MinLevel →
/// GreedySelect → EstimateRealLabelRate → RejectionSampler::Train →
/// GenerateAccepted per plan entry, with the same rng draws in the same
/// order, so its records (and ReportDigest) equal the untraced run's.
/// `model` and `embedder` are the decorated interfaces; the guide
/// selector is wrapped here with `layers->bandit`. Only the Greedy
/// combination selection that every benchmarked entry point uses is
/// supported.
chameleon::util::Result<chameleon::core::RepairReport> StagedRepair(
    chameleon::fm::FoundationModel* model,
    const chameleon::embedding::Embedder* embedder,
    const chameleon::fm::EvaluatorPool* evaluators,
    const chameleon::core::ChameleonOptions& options,
    chameleon::fm::Corpus* corpus, TracedLayers* layers, StageTimes* times);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_H_
