// Batched FM queries: the default GenerateBatch's slot contract, the
// BackendPool's routing and slot-order contracts, and the pipeline-level
// guarantees — each rejection round is exactly one GenerateBatch
// dispatch, and accepted tuples are bit-identical across thread counts,
// with and without injected faults (DESIGN.md §11).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/backend_pool.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/flaky_foundation_model.h"
#include "src/fm/foundation_model.h"
#include "src/fm/resilient_foundation_model.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/obs/observability.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::fm {
namespace {

/// Deterministic backend that echoes the request's values and stamps
/// latent_realism from its own call counter, so slot routing mistakes
/// are visible.
class EchoModel : public FoundationModel {
 public:
  [[nodiscard]] util::Result<GenerationResult> Generate(
      const GenerationRequest& request, util::Rng* /*rng*/) override {
    RecordQuery();
    GenerationResult result;
    result.image = image::Image(2, 2, 3, 7);
    result.values = request.target_values;
    result.latent_realism = static_cast<double>(calls_++);
    return result;
  }

  double query_cost() const override { return 1.0; }

 private:
  int64_t calls_ = 0;
};

GenerationRequest RequestFor(int i) {
  GenerationRequest request;
  request.target_values = {i, i + 1};
  return request;
}

TEST(FoundationModelTest, PerRequestFailuresLandInTheirOwnSlots) {
  // A failing request must not poison its batchmates: the default
  // GenerateBatch carries each per-request error in its own slot.
  FlakyOptions flaky_options;
  flaky_options.outage_start = 1;  // second call in the batch fails
  flaky_options.outage_length = 1;
  EchoModel inner;
  FlakyFoundationModel model(&inner, flaky_options);

  std::vector<GenerationRequest> requests;
  std::vector<util::Rng> rngs;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(RequestFor(i));
    rngs.emplace_back(static_cast<uint64_t>(i));
  }
  std::vector<BatchItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    items.push_back(BatchItem{&requests[i], &rngs[i]});
  }
  const auto results = model.GenerateBatch(items);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kUnavailable);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(results[2]->values, requests[2].target_values);
}

// ---------------------------------------------------------------------------
// Default GenerateBatch == loop over Generate
// ---------------------------------------------------------------------------

TEST(FoundationModelTest, DefaultGenerateBatchMatchesLoopOverGenerate) {
  const auto schema = datasets::FeretSchema();
  const SimulatedFoundationModel::Options sim_options;
  SimulatedFoundationModel loop_model(schema, datasets::FeretFaceStyleFn(),
                                      datasets::FeretScene(), sim_options);
  SimulatedFoundationModel batch_model(schema, datasets::FeretFaceStyleFn(),
                                       datasets::FeretScene(), sim_options);

  std::vector<GenerationRequest> requests;
  for (int i = 0; i < 6; ++i) {
    GenerationRequest request;
    request.target_values = {i % 2, i % 5};
    requests.push_back(request);
  }

  // Per-request RNG forks from a common parent, exactly as the pipeline
  // does before enqueueing.
  std::vector<GenerationResult> via_loop;
  {
    util::Rng parent(99);
    for (const GenerationRequest& request : requests) {
      util::Rng fork = parent.Fork();
      via_loop.push_back(*loop_model.Generate(request, &fork));
    }
  }
  util::Rng parent(99);
  std::vector<util::Rng> forks;
  forks.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) forks.push_back(parent.Fork());
  std::vector<BatchItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    items.push_back(BatchItem{&requests[i], &forks[i]});
  }
  const auto via_batch = batch_model.GenerateBatch(items);

  ASSERT_EQ(via_batch.size(), via_loop.size());
  for (size_t i = 0; i < via_loop.size(); ++i) {
    ASSERT_TRUE(via_batch[i].ok());
    EXPECT_EQ(via_batch[i]->image, via_loop[i].image) << "item " << i;
    EXPECT_EQ(via_batch[i]->values, via_loop[i].values);
    EXPECT_EQ(via_batch[i]->latent_realism, via_loop[i].latent_realism);
  }
}

// ---------------------------------------------------------------------------
// BackendPool routing
// ---------------------------------------------------------------------------

SimulatedBackendPool MakeTestPool(BackendRouterKind router) {
  SimulatedPoolOptions options;
  options.num_backends = 3;
  SimulatedBackendPool pool = MakeSimulatedBackendPool(
      datasets::FeretSchema(), datasets::FeretFaceStyleFn(),
      datasets::FeretScene(), options);
  pool.pool->set_backend_router(router);
  return pool;
}

TEST(BackendPoolTest, GreedyRouterPicksCheapestCostPerAcceptedTuple) {
  SimulatedBackendPool pool = MakeTestPool(BackendRouterKind::kGreedyCost);
  // econ: 0.008 / 0.35 ≈ 0.023 beats standard (0.032) and premium (0.046).
  util::Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    auto result = pool.pool->Generate(RequestFor(i % 2), &rng);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->backend, 0);
  }
  EXPECT_EQ(pool.pool->routed_queries(0), 4);
  EXPECT_EQ(pool.pool->routed_queries(1), 0);
  EXPECT_EQ(pool.pool->routed_queries(2), 0);
  EXPECT_EQ(pool.pool->num_queries(), 4);
}

TEST(BackendPoolTest, LinUcbRouterLearnsFromOutcomeFeedback) {
  SimulatedBackendPool pool = MakeTestPool(BackendRouterKind::kLinUcb);
  util::Rng rng(5);
  // Untrained, every arm scores the same and ties break to index 0.
  auto first = pool.pool->Generate(RequestFor(0), &rng);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->backend, 0);

  // Feedback: econ keeps rejecting, premium keeps accepting. The router
  // only ever learns through ReportOutcome (the pipeline's merge path).
  for (int i = 0; i < 3; ++i) {
    pool.pool->ReportOutcome(0, /*accepted=*/false);
    pool.pool->ReportOutcome(2, /*accepted=*/true);
  }
  auto trained = pool.pool->Generate(RequestFor(1), &rng);
  ASSERT_TRUE(trained.ok());
  EXPECT_EQ(trained->backend, 2);
  EXPECT_EQ(pool.pool->accepted_outcomes(2), 3);
  EXPECT_EQ(pool.pool->accepted_outcomes(0), 0);

  // OnRunStart forgets the training: runs are independent.
  pool.pool->OnRunStart();
  auto fresh = pool.pool->Generate(RequestFor(0), &rng);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->backend, 0);
}

TEST(BackendPoolTest, GenerateBatchPreservesSlotOrderAndStampsBackend) {
  SimulatedBackendPool pool = MakeTestPool(BackendRouterKind::kGreedyCost);
  std::vector<GenerationRequest> requests;
  std::vector<util::Rng> rngs;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(RequestFor(i % 2));
    rngs.emplace_back(static_cast<uint64_t>(200 + i));
  }
  std::vector<BatchItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    items.push_back(BatchItem{&requests[i], &rngs[i]});
  }
  const double before_ms = pool.pool->virtual_ms();
  const auto results = pool.pool->GenerateBatch(items);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "item " << i;
    EXPECT_EQ(results[i]->values, requests[i].target_values);
    EXPECT_EQ(results[i]->backend, 0);
  }
  // One dispatch to the econ tier: base 30 ms + 5 queries * 3 ms.
  EXPECT_DOUBLE_EQ(pool.pool->virtual_ms() - before_ms, 30.0 + 5 * 3.0);
}

TEST(BackendPoolTest, BatchingSameRequestsIsBitIdenticalToSingles) {
  // The pool half of the determinism contract: grouping into a batch
  // changes neither routing nor results, given per-request RNG forks.
  std::vector<GenerationRequest> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(RequestFor(i % 2));

  SimulatedBackendPool singles = MakeTestPool(BackendRouterKind::kGreedyCost);
  std::vector<GenerationResult> expected;
  {
    util::Rng parent(321);
    for (const GenerationRequest& request : requests) {
      util::Rng fork = parent.Fork();
      expected.push_back(*singles.pool->Generate(request, &fork));
    }
  }

  SimulatedBackendPool batched = MakeTestPool(BackendRouterKind::kGreedyCost);
  util::Rng parent(321);
  std::vector<util::Rng> forks;
  forks.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) forks.push_back(parent.Fork());
  std::vector<BatchItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    items.push_back(BatchItem{&requests[i], &forks[i]});
  }
  const auto results = batched.pool->GenerateBatch(items);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i]->image, expected[i].image) << "item " << i;
    EXPECT_EQ(results[i]->values, expected[i].values);
    EXPECT_EQ(results[i]->latent_realism, expected[i].latent_realism);
  }
}

}  // namespace
}  // namespace chameleon::fm

// ---------------------------------------------------------------------------
// Pipeline level: one dispatch per round, bit-identity across threads
// ---------------------------------------------------------------------------

namespace chameleon::core {
namespace {

struct PipelineRun {
  RepairReport report;
  int64_t synthetic = 0;
};

/// One full repair over a fresh FERET corpus at rejection_batch 32.
/// When `faults` is set, the model stack is resilient(flaky(simulator))
/// with a 30% transient rate and a retry budget that masks everything.
PipelineRun RunBatchedRepair(int threads, bool faults) {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  fm::Corpus corpus =
      *datasets::MakeFeret(&embedder, datasets::FeretOptions());
  fm::SimulatedFoundationModel sim(corpus.dataset.schema(),
                                   datasets::FeretFaceStyleFn(),
                                   datasets::FeretScene(),
                                   fm::SimulatedFoundationModel::Options());
  std::unique_ptr<fm::FlakyFoundationModel> flaky_model;
  std::unique_ptr<fm::ResilientFoundationModel> resilient_model;
  fm::FoundationModel* model = &sim;
  if (faults) {
    fm::FlakyOptions flaky;
    flaky.seed = 555;
    flaky.transient_rate = 0.3;
    fm::ResilienceOptions resilience;
    resilience.max_attempts = 64;
    resilience.breaker_failure_threshold = 1 << 30;
    flaky_model = std::make_unique<fm::FlakyFoundationModel>(&sim, flaky);
    resilient_model = std::make_unique<fm::ResilientFoundationModel>(
        flaky_model.get(), resilience);
    model = resilient_model.get();
  }

  ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.num_threads = threads;
  options.rejection_batch = 32;
  Chameleon system(model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&corpus);
  EXPECT_TRUE(report.ok());
  return {*report, corpus.dataset.NumSynthetic()};
}

void ExpectSameAcceptedTuples(const RepairReport& a, const RepairReport& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.distribution_passes, b.distribution_passes);
  EXPECT_EQ(a.quality_passes, b.quality_passes);
  EXPECT_EQ(a.fully_resolved, b.fully_resolved);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].target_values, b.records[i].target_values);
    EXPECT_EQ(a.records[i].embedding, b.records[i].embedding);
    EXPECT_EQ(a.records[i].decision_value, b.records[i].decision_value);
    EXPECT_EQ(a.records[i].quality_p_value, b.records[i].quality_p_value);
    EXPECT_EQ(a.records[i].arm, b.records[i].arm);
    EXPECT_EQ(a.records[i].accepted, b.records[i].accepted);
  }
}

/// Transparent wrapper that records every GenerateBatch dispatch's size
/// and counts direct Generate calls.
class DispatchRecorder : public fm::FoundationModel {
 public:
  explicit DispatchRecorder(fm::FoundationModel* inner) : inner_(inner) {}

  [[nodiscard]] util::Result<fm::GenerationResult> Generate(
      const fm::GenerationRequest& request, util::Rng* rng) override {
    ++direct_calls_;
    return inner_->Generate(request, rng);
  }

  [[nodiscard]] std::vector<util::Result<fm::GenerationResult>>
  GenerateBatch(std::span<const fm::BatchItem> items) override {
    dispatch_sizes_.push_back(static_cast<int64_t>(items.size()));
    return inner_->GenerateBatch(items);
  }

  double query_cost() const override { return inner_->query_cost(); }

  const std::vector<int64_t>& dispatch_sizes() const {
    return dispatch_sizes_;
  }
  int64_t direct_calls() const { return direct_calls_; }

 private:
  fm::FoundationModel* inner_;
  std::vector<int64_t> dispatch_sizes_;
  int64_t direct_calls_ = 0;
};

/// The round sizes a fault-free run must issue, derived from the plan
/// and the per-query records alone: each round of an entry asks for
/// min(rejection_batch, tuples still needed, attempts left) queries, and
/// the entry ends once it is filled or out of attempts.
std::vector<int64_t> ExpectedRoundSizes(const RepairReport& report,
                                        const ChameleonOptions& options) {
  std::vector<int64_t> rounds;
  size_t next = 0;
  for (const PlanEntry& entry : report.plan) {
    const int64_t cap = options.max_attempts_per_tuple * entry.count;
    int64_t accepted = 0;
    int64_t attempts = 0;
    while (accepted < entry.count && attempts < cap) {
      const int64_t size = std::min(
          {static_cast<int64_t>(options.rejection_batch),
           entry.count - accepted, cap - attempts});
      rounds.push_back(size);
      for (int64_t i = 0; i < size && next < report.records.size(); ++i) {
        if (report.records[next++].accepted) ++accepted;
      }
      attempts += size;
    }
  }
  return rounds;
}

TEST(BatchingDeterminismTest, EachRejectionRoundIsOneWholeDispatch) {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  fm::Corpus corpus =
      *datasets::MakeFeret(&embedder, datasets::FeretOptions());
  fm::SimulatedFoundationModel sim(corpus.dataset.schema(),
                                   datasets::FeretFaceStyleFn(),
                                   datasets::FeretScene(),
                                   fm::SimulatedFoundationModel::Options());
  DispatchRecorder recorder(&sim);

  ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.rejection_batch = 32;
  Chameleon system(&recorder, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&corpus);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->queries, 0);

  // Every query went through GenerateBatch, one call per whole round.
  EXPECT_EQ(recorder.direct_calls(), 0);
  EXPECT_EQ(recorder.dispatch_sizes(), ExpectedRoundSizes(*report, options));
  EXPECT_GT(*std::max_element(recorder.dispatch_sizes().begin(),
                              recorder.dispatch_sizes().end()),
            5);
  EXPECT_EQ(std::accumulate(recorder.dispatch_sizes().begin(),
                            recorder.dispatch_sizes().end(), int64_t{0}),
            report->queries);
  EXPECT_EQ(report->queries, sim.num_queries());

  // The wrapper is transparent: the same tuples as the bare simulator.
  ExpectSameAcceptedTuples(RunBatchedRepair(/*threads=*/1, false).report,
                           *report);
}

TEST(BatchingDeterminismTest, AcceptedTuplesBitIdenticalAcrossThreadCounts) {
  // The round's one dispatch and in-order merge never depend on the
  // worker count, so every width reproduces the serial run bit for bit.
  const PipelineRun baseline = RunBatchedRepair(/*threads=*/1, false);
  ASSERT_GT(baseline.report.accepted, 0);

  for (int threads : {2, 8}) {
    const PipelineRun run = RunBatchedRepair(threads, false);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameAcceptedTuples(baseline.report, run.report);
    EXPECT_EQ(baseline.synthetic, run.synthetic);
  }
}

TEST(BatchingDeterminismTest, MaskedFaultsPreserveTuplesAtEveryThreadCount) {
  // The same run under a 30% injected transient-fault rate: the retry
  // layer masks every fault inside the round's dispatch (checkpointing
  // the per-request RNG), so the faulted runs still reproduce the
  // fault-free baseline exactly.
  const PipelineRun baseline = RunBatchedRepair(/*threads=*/1, false);
  ASSERT_GT(baseline.report.accepted, 0);

  for (int threads : {1, 2, 8}) {
    const PipelineRun run = RunBatchedRepair(threads, true);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameAcceptedTuples(baseline.report, run.report);
    EXPECT_EQ(baseline.synthetic, run.synthetic);
    EXPECT_GT(run.report.faults.transport.faults_masked, 0);
    EXPECT_EQ(run.report.faults.transport.failed_queries, 0);
    EXPECT_EQ(run.report.faults.parked_entries(), 0);
  }
}

TEST(BatchingDeterminismTest, PoolPipelineIsDeterministicAcrossThreadCounts) {
  // End to end with the multi-backend pool and the learned router: the
  // router trains only on the serial merge path, so the thread count
  // still cannot perturb routing or results.
  auto run_with_pool = [](int threads) {
    embedding::SimulatedEmbedder embedder;
    fm::EvaluatorPool evaluators(2024);
    fm::Corpus corpus =
        *datasets::MakeFeret(&embedder, datasets::FeretOptions());
    fm::SimulatedBackendPool pool = fm::MakeSimulatedBackendPool(
        corpus.dataset.schema(), datasets::FeretFaceStyleFn(),
        datasets::FeretScene(), fm::SimulatedPoolOptions());
    ChameleonOptions options;
    options.tau = 40;
    options.seed = 11;
    options.num_threads = threads;
    options.rejection_batch = 32;
    options.backend_router = fm::BackendRouterKind::kLinUcb;
    Chameleon system(pool.pool.get(), &embedder, &evaluators, options);
    auto report = system.RepairMinLevelMups(&corpus);
    EXPECT_TRUE(report.ok());
    PipelineRun run{*report, corpus.dataset.NumSynthetic()};
    EXPECT_EQ(pool.pool->backend_router(), fm::BackendRouterKind::kLinUcb);
    return run;
  };

  const PipelineRun baseline = run_with_pool(/*threads=*/1);
  ASSERT_GT(baseline.report.accepted, 0);
  const PipelineRun run = run_with_pool(/*threads=*/8);
  ExpectSameAcceptedTuples(baseline.report, run.report);
  EXPECT_EQ(baseline.synthetic, run.synthetic);
}

/// Pinned outcome of the scripted-outage run below at one rejection_batch.
struct ParkingCase {
  int rejection_batch = 1;
  int64_t parked_count = 0;    // fm.parked: one per failed result
  int64_t parked_entries = 0;  // plan entries parked
  int64_t queries = 0;         // successful queries in the report
};

class BatchParkingTest : public ::testing::TestWithParam<ParkingCase> {};

TEST_P(BatchParkingTest, BatchedModeParksPerFailureAndKeepsBatchmates) {
  // A scripted outage (no retry layer) parks the entries it hit — one
  // fm.parked increment per failed result — while the OK results from
  // the same round are still evaluated and merged.
  const ParkingCase& expected = GetParam();
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  fm::Corpus corpus =
      *datasets::MakeFeret(&embedder, datasets::FeretOptions());
  fm::SimulatedFoundationModel sim(corpus.dataset.schema(),
                                   datasets::FeretFaceStyleFn(),
                                   datasets::FeretScene(),
                                   fm::SimulatedFoundationModel::Options());
  fm::FlakyOptions flaky;
  flaky.outage_start = 2;
  flaky.outage_length = 3;
  fm::FlakyFoundationModel model(&sim, flaky);

  obs::Observability observability;
  ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.rejection_batch = expected.rejection_batch;
  options.observability = &observability;
  Chameleon system(&model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&corpus);
  ASSERT_TRUE(report.ok());

  // Every scripted failure that hit a query parked once: the count is
  // per failed result, not per entry.
  EXPECT_EQ(model.counters().scripted, expected.parked_count);
  EXPECT_EQ(observability.registry.Counter("fm.parked")->value(),
            expected.parked_count);
  EXPECT_EQ(report->faults.parked_entries(), expected.parked_entries);
  EXPECT_EQ(report->queries, expected.queries);
  // The healthy queries sharing those rounds still produced tuples.
  EXPECT_GT(report->accepted, 0);
  // Pinned accounting identities from the obs layer still hold.
  EXPECT_EQ(report->queries, static_cast<int64_t>(model.num_queries()) -
                                 expected.parked_count);
}

// The plan has two entries. At rejection_batch 1 each round is one query:
// the first entry's third query (outage start) parks it, the second
// entry's first query parks that one, and the run ends with the last
// outage query never issued. At 8 the whole outage lands inside the first
// entry's first round: three parked results, one parked entry, and the
// second entry still runs.
INSTANTIATE_TEST_SUITE_P(
    RejectionBatch, BatchParkingTest,
    ::testing::Values(ParkingCase{1, 2, 2, 2}, ParkingCase{8, 3, 1, 52}),
    [](const ::testing::TestParamInfo<ParkingCase>& info) {
      return "rejection_batch_" + std::to_string(info.param.rejection_batch);
    });

}  // namespace
}  // namespace chameleon::core
