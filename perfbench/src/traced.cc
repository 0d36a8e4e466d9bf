#include "perfbench/src/traced.h"

#include "perfbench/src/common.h"
#include "src/coverage/pattern_counter.h"
#include "src/fm/deadline.h"

namespace perfbench {

namespace cf = chameleon::fm;
namespace cc = chameleon::core;
using chameleon::util::Result;
using chameleon::util::Status;

namespace {

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

void LayerCounters::Reset() {
  calls = 0;
  items = 0;
  failed = 0;
  busy_ns = 0;
}

void TracedLayers::Reset() {
  fm.Reset();
  embed.Reset();
  bandit.Reset();
}

Result<cf::GenerationResult> TimedModel::Generate(
    const cf::GenerationRequest& request, chameleon::util::Rng* rng) {
  const Clock::time_point start = Clock::now();
  Result<cf::GenerationResult> result = inner_->Generate(request, rng);
  counters_->busy_ns += NsSince(start);
  counters_->calls += 1;
  counters_->items += 1;
  if (!result.ok()) counters_->failed += 1;
  return result;
}

std::vector<Result<cf::GenerationResult>> TimedModel::GenerateBatch(
    std::span<const cf::BatchItem> items) {
  const Clock::time_point start = Clock::now();
  std::vector<Result<cf::GenerationResult>> results =
      inner_->GenerateBatch(items);
  counters_->busy_ns += NsSince(start);
  counters_->calls += 1;
  counters_->items += static_cast<int64_t>(items.size());
  for (const auto& result : results) {
    if (!result.ok()) counters_->failed += 1;
  }
  return results;
}

std::vector<double> TimedEmbedder::Embed(
    const chameleon::image::Image& image) const {
  const Clock::time_point start = Clock::now();
  std::vector<double> embedding = inner_->Embed(image);
  counters_->busy_ns += NsSince(start);
  counters_->calls += 1;
  return embedding;
}

Result<cc::GuideChoice> TimedSelector::Select(
    const chameleon::data::Dataset& dataset, const std::vector<int>& target,
    chameleon::util::Rng* rng) {
  const Clock::time_point start = Clock::now();
  Result<cc::GuideChoice> choice = inner_->Select(dataset, target, rng);
  counters_->busy_ns += NsSince(start);
  counters_->calls += 1;
  return choice;
}

Result<cc::RepairReport> StagedRepair(cf::FoundationModel* model,
                                      const chameleon::embedding::Embedder* embedder,
                                      const cf::EvaluatorPool* evaluators,
                                      const cc::ChameleonOptions& options,
                                      cf::Corpus* corpus, TracedLayers* layers,
                                      StageTimes* times) {
  if (options.selection != cc::SelectionAlgorithm::kGreedy ||
      options.incremental_coverage || options.observability != nullptr) {
    return Status::InvalidArgument(
        "staged replay supports greedy selection, full coverage and no "
        "observability sink");
  }
  cc::RepairReport report;
  chameleon::util::Rng rng(options.seed);
  const chameleon::data::AttributeSchema& schema = corpus->dataset.schema();
  model->OnRunStart();
  model->set_backend_router(options.backend_router);
  model->set_deadline(options.deadline);
  model->set_observability(nullptr);

  // 1. MUP search.
  Clock::time_point stage = Clock::now();
  auto counter = chameleon::coverage::PatternCounter::FromDataset(corpus->dataset);
  if (!counter.ok()) return counter.status();
  chameleon::coverage::MupFinder finder(schema, *counter);
  chameleon::coverage::MupFinderOptions mup_options;
  mup_options.tau = options.tau;
  mup_options.num_threads = options.num_threads;
  const Clock::time_point find_start = Clock::now();
  const std::vector<chameleon::coverage::Mup> all_mups =
      finder.FindMups(mup_options);
  times->coverage_find_mups_ms += MsSince(find_start);
  times->count_queries += finder.last_count_queries();
  times->frontier_size += static_cast<int64_t>(all_mups.size());
  report.initial_mups = chameleon::coverage::MupFinder::MinLevel(all_mups);
  times->find_mups_ms += MsSince(stage);
  if (report.initial_mups.empty()) {
    report.fully_resolved = true;
    return report;
  }

  // 2. Combination selection.
  stage = Clock::now();
  report.plan = cc::GreedySelect(schema, report.initial_mups);
  times->select_ms += MsSince(stage);

  // 3. p-estimation and sampler training.
  stage = Clock::now();
  report.estimated_p = evaluators->EstimateRealLabelRate(
      corpus->RealTupleRealism(), options.p_estimation_samples, &rng);
  times->estimate_p_ms += MsSince(stage);
  if (report.estimated_p <= 0.0) {
    return Status::FailedPrecondition(
        "could not estimate p: corpus has no real tuples with payloads");
  }
  stage = Clock::now();
  std::vector<std::vector<double>> real_embeddings;
  for (const auto& t : corpus->dataset.tuples()) {
    if (!t.synthetic && !t.embedding.empty()) real_embeddings.push_back(t.embedding);
  }
  auto sampler = cc::RejectionSampler::Train(real_embeddings, evaluators,
                                             report.estimated_p,
                                             options.rejection);
  if (!sampler.ok()) return sampler.status();
  times->sampler_train_ms += MsSince(stage);

  // 4. Fulfil the plan.
  stage = Clock::now();
  TimedSelector selector(
      cc::MakeGuideSelector(options.guide_strategy, schema, options.linucb_alpha),
      &layers->bandit);
  cc::Chameleon system(model, embedder, evaluators, options);
  bool all_filled = true;
  for (const auto& entry : report.plan) {
    auto accepted = system.GenerateAccepted(corpus, entry.values, entry.count,
                                            &selector, *sampler, &report, &rng);
    if (!accepted.ok()) return accepted.status();
    if (*accepted < entry.count) all_filled = false;
  }
  times->generate_accepted_ms += MsSince(stage);
  if (options.deadline != nullptr) {
    report.cancelled = options.deadline->Cancelled();
    report.deadline_expired = options.deadline->Expired();
  }
  report.fully_resolved = all_filled;
  report.total_cost = static_cast<double>(report.queries) * model->query_cost();
  return report;
}

}  // namespace perfbench
