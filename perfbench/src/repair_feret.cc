// repair-feret: what a user of `chameleon_cli repair --dataset=feret
// --tau=100` gets. Closed loop, one client: the FERET world is built in
// set-up, then RepairMinLevelMups runs back to back, each call on a fresh
// copy of the base corpus with a seed derived from --seed, with the
// CLI's default options.
//
// Traced run: the first half of the time runs untraced repairs; each of
// them is then replayed as a staged repair with timing decorators, its
// digest checked against the untraced one, and the per-layer figures are
// per-repair means over the replays.

#include <algorithm>
#include <optional>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/traced.h"
#include "perfbench/src/workloads.h"
#include "src/core/chameleon.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/deadline.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "tools/chameleond/protocol.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
/// goodput_share limit: about twice a lone repair at seed (0.48-0.61 s).
constexpr double kRepairLimitMs = 1200.0;
constexpr int64_t kTau = 100;
constexpr uint64_t kEvaluatorSeed = 2024;

/// The options `chameleon_cli repair --dataset=feret --tau=100 --seed=S`
/// runs with (every other flag at its default).
core::ChameleonOptions CliOptions(uint64_t seed) {
  core::ChameleonOptions options;
  options.tau = kTau;
  options.seed = seed;
  options.rejection.quality_alpha = 0.1;
  options.rejection.svm.nu = 0.3;
  options.guide_strategy = core::GuideStrategy::kLinUcb;
  options.mask_level = chameleon::image::MaskLevel::kModerate;
  options.backend_router = fm::BackendRouterKind::kGreedyCost;
  return options;
}

chameleon::fm::SimulatedFoundationModel MakeModel(const fm::Corpus& corpus) {
  return chameleon::fm::SimulatedFoundationModel(
      corpus.dataset.schema(), chameleon::datasets::FeretFaceStyleFn(),
      chameleon::datasets::FeretScene(),
      chameleon::fm::SimulatedFoundationModel::Options());
}

fm::Corpus BuildWorld(const chameleon::embedding::Embedder* embedder) {
  auto corpus = chameleon::datasets::MakeFeret(
      embedder, chameleon::datasets::FeretOptions());
  if (!corpus.ok()) {
    throw std::runtime_error("FERET world build failed: " +
                             corpus.status().ToString());
  }
  return *std::move(corpus);
}

std::vector<coverage::Mup> FreshMups(const fm::Corpus& corpus) {
  auto counter = coverage::PatternCounter::FromDataset(corpus.dataset);
  if (!counter.ok()) {
    throw std::runtime_error("pattern counter: " + counter.status().ToString());
  }
  coverage::MupFinder finder(corpus.dataset.schema(), *counter);
  coverage::MupFinderOptions options;
  options.tau = kTau;
  return finder.FindMups(options);
}

struct Repair {
  uint64_t seed = 0;
  double ms = 0.0;
  bool ok = false;
  int64_t queries = 0;
  int64_t accepted = 0;
  bool resolved = false;
  std::string digest;
};

/// One untraced repair, as the CLI runs it, plus its checks.
Repair RunRepair(const fm::Corpus& base,
                 const chameleon::embedding::Embedder& embedder, uint64_t seed,
                 Inject inject) {
  fm::Corpus corpus = base;
  Repair out;
  out.seed = seed;
  const Clock::time_point start = Clock::now();
  chameleon::fm::SimulatedFoundationModel model = MakeModel(corpus);
  const chameleon::fm::EvaluatorPool evaluators(kEvaluatorSeed);
  chameleon::fm::Deadline deadline;
  core::ChameleonOptions options = CliOptions(seed);
  options.deadline = &deadline;
  core::Chameleon system(&model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&corpus);
  out.ms = MsSince(start);
  if (!report.ok()) return out;

  out.ok = true;
  out.queries = report->queries;
  out.accepted = report->accepted;
  out.resolved = report->fully_resolved;
  out.digest = chameleon::daemon::ReportDigest(*report);
  Require(kCheckGrowth, CheckCorpusGrowth(base.dataset.size(),
                                          corpus.dataset.size(),
                                          report->accepted));
  Require(kCheckPlanTargets,
          CheckSyntheticMatchPlan(corpus, base.dataset.size(), report->plan));
  const fm::Corpus& audited = inject == Inject::kResolvedSurvivor ? base : corpus;
  Require(kCheckResolved, CheckResolvedMupsGone(*report, FreshMups(audited)));
  return out;
}

}  // namespace

WorkloadResult RunRepairFeret(const Args& args) {
  WorkloadResult result;
  const chameleon::embedding::SimulatedEmbedder embedder;

  std::vector<double> setup_s;
  std::optional<fm::Corpus> base;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    base = BuildWorld(&embedder);
    setup_s.push_back(MsSince(start) / 1000.0);
  }

  // Closed loop. A traced run spends half its time here and the other
  // half replaying these repairs with the decorators on.
  const double budget_ms = args.seconds * 1000.0 * (args.trace ? 0.5 : 1.0);
  std::vector<Repair> repairs;
  const Clock::time_point loop_start = Clock::now();
  while (repairs.empty() || MsSince(loop_start) < budget_ms) {
    repairs.push_back(RunRepair(*base, embedder,
                                DeriveSeed(args.seed, repairs.size()),
                                args.inject));
  }

  std::vector<double> ok_ms;
  double total_ms = 0.0;
  int64_t queries = 0, accepted = 0, resolved = 0, within = 0;
  for (const Repair& r : repairs) {
    ++result.attempted;
    total_ms += r.ms;
    if (!r.ok) {
      ++result.failed;
      continue;
    }
    ok_ms.push_back(r.ms);
    queries += r.queries;
    accepted += r.accepted;
    resolved += r.resolved ? 1 : 0;
    within += r.ms <= kRepairLimitMs ? 1 : 0;
  }
  const double n = static_cast<double>(repairs.size());
  const double p50 = Median(ok_ms), p90 = Quantile(ok_ms, 0.9);
  const double accepted_per_s = accepted / (total_ms / 1000.0);
  result.end_to_end["setup_s"] = Median(setup_s);
  result.samples["setup_s"] = kSetupRepeats;
  result.end_to_end["latency_p50_ms"] = p50;
  result.end_to_end["latency_p90_ms"] = p90;
  result.samples["latency_p50_ms"] = result.samples["latency_p90_ms"] =
      static_cast<int64_t>(ok_ms.size());
  result.end_to_end["goodput_share"] = within / n;
  result.samples["goodput_share"] = static_cast<int64_t>(n);
  result.end_to_end["work_per_s"] = accepted_per_s;

  result.named["setup_s"] = WithUnit(Median(setup_s), "s");
  result.named["failed_share"] = WithUnit(result.failed / n, "share");
  result.named["repair_p50_ms"] = WithUnit(p50, "ms");
  result.named["repair_p90_ms"] = WithUnit(p90, "ms");
  result.named["accepted_per_s"] = WithUnit(accepted_per_s, "1/s");
  result.named["queries_per_accepted"] =
      WithUnit(accepted > 0 ? static_cast<double>(queries) / accepted : 0.0,
               "ratio");
  result.named["resolved_share"] = WithUnit(resolved / n, "share");

  if (args.trace) {
    // Traced world build: datasets layer and the embedder inside it.
    TracedLayers layers;
    const TimedEmbedder timed_embedder(&embedder, &layers.embed);
    const Clock::time_point build_start = Clock::now();
    const fm::Corpus traced_world = BuildWorld(&timed_embedder);
    result.per_layer["datasets.world_build_ms"] = MsSince(build_start);
    result.per_layer["datasets.tuples_built"] =
        static_cast<double>(traced_world.dataset.size());
    result.per_layer["embedding.world_embed_ms"] = layers.embed.busy_ms();
    layers.Reset();

    // Staged replay of every untraced repair.
    StageTimes stages;
    double traced_ms = 0.0, untraced_ms = 0.0;
    int64_t replay_queries = 0, replay_accepted = 0, replayed = 0;
    for (const Repair& r : repairs) {
      if (!r.ok) continue;
      fm::Corpus corpus = *base;
      const uint64_t seed =
          args.inject == Inject::kReplayDigest && replayed == 0 ? r.seed + 1
                                                                : r.seed;
      const Clock::time_point start = Clock::now();
      chameleon::fm::SimulatedFoundationModel sim = MakeModel(corpus);
      TimedModel model(&sim, &layers.fm);
      const chameleon::fm::EvaluatorPool evaluators(kEvaluatorSeed);
      chameleon::fm::Deadline deadline;
      core::ChameleonOptions options = CliOptions(seed);
      options.deadline = &deadline;
      auto report = StagedRepair(&model, &timed_embedder, &evaluators, options,
                                 &corpus, &layers, &stages);
      traced_ms += MsSince(start);
      untraced_ms += r.ms;
      if (!report.ok()) {
        throw std::runtime_error("staged replay failed: " +
                                 report.status().ToString());
      }
      Require(kCheckReplayDigest,
              CheckDigestsEqual("staged replay of seed " + std::to_string(r.seed),
                                r.digest,
                                chameleon::daemon::ReportDigest(*report)));
      replay_queries += report->queries;
      replay_accepted += report->accepted;
      ++replayed;
    }
    const double k = std::max<int64_t>(replayed, 1);
    const double fm_ms = layers.fm.busy_ms(), embed_ms = layers.embed.busy_ms(),
                 select_ms = layers.bandit.busy_ms();
    auto& p = result.per_layer;
    p["fm.generate_calls"] = layers.fm.calls / k;
    p["fm.generate_items"] = layers.fm.items / k;
    p["fm.generate_ms"] = fm_ms / k;
    p["fm.generate_failed"] = layers.fm.failed / k;
    p["embedding.embed_calls"] = layers.embed.calls / k;
    p["embedding.embed_ms"] = embed_ms / k;
    p["bandit.select_calls"] = layers.bandit.calls / k;
    p["bandit.select_ms"] = select_ms / k;
    p["core.find_mups_ms"] = stages.find_mups_ms / k;
    p["core.select_ms"] = stages.select_ms / k;
    p["core.estimate_p_ms"] = stages.estimate_p_ms / k;
    p["core.sampler_train_ms"] = stages.sampler_train_ms / k;
    p["core.generate_accepted_self_ms"] =
        (stages.generate_accepted_ms - fm_ms - embed_ms - select_ms) / k;
    p["core.acceptance_ratio"] =
        replay_queries > 0 ? static_cast<double>(replay_accepted) / replay_queries
                           : 0.0;
    p["core.queries_per_accepted"] =
        replay_accepted > 0
            ? static_cast<double>(replay_queries) / replay_accepted
            : 0.0;
    p["coverage.find_mups_ms"] = stages.coverage_find_mups_ms / k;
    p["coverage.count_queries"] = stages.count_queries / k;
    p["coverage.frontier_size"] = stages.frontier_size / k;
    p["trace.overhead_share"] = untraced_ms > 0.0 ? traced_ms / untraced_ms : 0.0;
    for (const char* name :
         {"fm.generate_ms", "embedding.embed_ms", "bandit.select_ms",
          "core.find_mups_ms", "core.select_ms", "core.estimate_p_ms",
          "core.sampler_train_ms", "core.generate_accepted_self_ms",
          "coverage.find_mups_ms", "trace.overhead_share"}) {
      result.samples[name] = replayed;
    }
  }
  result.end_to_end["peak_rss_mb"] = PeakRssMb();
  result.named["peak_rss_mb"] = WithUnit(PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
