// audit-stream: coverage only, no images. The base is a skewed
// categorical dataset of 10^5 tuples over the stream schema of
// bench/bench_incremental_coverage.cc (cardinalities 2x5x4x3x3, value 0
// of each attribute dominant), audited at tau = 50. The run interleaves
// writes and reads: an epoch of kEpochBatches InsertBatch(100) calls into
// a clone of the base IncrementalMupIndex, each followed by a Mups()
// read of the frontier, then kAuditsPerEpoch full FindMups audits of the
// base. Each epoch ends by checking the maintained frontier against an
// order-normalised FindMups of the materialised dataset.
//
// Traced run: the cycles run once untraced, then again on the same
// inputs with every InsertBatch and Mups() call timed alone; the tracing
// overhead is the traced time over the untraced time.

#include <algorithm>
#include <optional>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/coverage/incremental_mup.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/data/dataset.h"
#include "src/data/schema.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int64_t kBaseTuples = 100000;
constexpr int64_t kTau = 50;
constexpr int kBatch = 100;
constexpr int kEpochBatches = 500;
constexpr int kAuditsPerEpoch = 3;
/// The base dataset is the same on every run (like the FERET world of
/// repair-feret); --seed drives the streamed tuples.
constexpr uint64_t kBaseSeed = 2024;
/// goodput limit on one audit: about twice a FindMups at seed (~360 ms
/// on a 4-core Xeon).
constexpr double kAuditLimitMs = 700.0;

data::AttributeSchema StreamSchema() {
  data::AttributeSchema schema;
  const std::vector<int> cardinalities = {2, 5, 4, 3, 3};
  for (size_t i = 0; i < cardinalities.size(); ++i) {
    // Appended rather than `"v" + std::to_string(v)`, which trips GCC 12's
    // false-positive -Wrestrict.
    std::vector<std::string> values;
    for (int v = 0; v < cardinalities[i]; ++v) {
      std::string value = "v";
      value += std::to_string(v);
      values.push_back(std::move(value));
    }
    std::string name = "a";
    name += std::to_string(i);
    if (!schema.AddAttribute({std::move(name), std::move(values), false}).ok()) {
      throw std::runtime_error("schema construction failed");
    }
  }
  return schema;
}

std::vector<int> NextTuple(const data::AttributeSchema& schema,
                           chameleon::util::Rng* rng) {
  std::vector<int> values(schema.num_attributes());
  for (int i = 0; i < schema.num_attributes(); ++i) {
    const int cardinality = schema.attribute(i).cardinality();
    values[i] = rng->NextBernoulli(0.55)
                    ? 0
                    : static_cast<int>(rng->NextBounded(cardinality));
  }
  return values;
}

struct Base {
  data::Dataset dataset;
  std::optional<coverage::PatternCounter> counter;
  std::optional<coverage::IncrementalMupIndex> index;
};

/// Set-up: the base dataset, its pattern counter, and the index built
/// from it (one FindMups traversal). The counter points at `schema`,
/// which must outlive it.
Base BuildBase(const data::AttributeSchema& schema) {
  Base base;
  base.dataset = data::Dataset(schema);
  base.counter.emplace(schema);
  chameleon::util::Rng rng(kBaseSeed);
  for (int64_t i = 0; i < kBaseTuples; ++i) {
    data::Tuple tuple;
    tuple.values = NextTuple(schema, &rng);
    if (!base.counter->AddTuple(tuple.values).ok() ||
        !base.dataset.Add(std::move(tuple)).ok()) {
      throw std::runtime_error("base dataset construction failed");
    }
  }
  coverage::IncrementalMupOptions options;
  options.tau = kTau;
  auto index = coverage::IncrementalMupIndex::FromDataset(base.dataset, options);
  if (!index.ok()) throw std::runtime_error(index.status().ToString());
  base.index.emplace(*std::move(index));
  return base;
}

coverage::MupFinderOptions AuditOptions() {
  coverage::MupFinderOptions options;
  options.tau = kTau;
  return options;
}

/// The batches of one epoch, seeded by (workload seed, epoch).
std::vector<std::vector<std::vector<int>>> EpochStream(
    const data::AttributeSchema& schema, uint64_t seed, int64_t epoch) {
  chameleon::util::Rng rng(DeriveSeed(seed, 1000 + epoch));
  std::vector<std::vector<std::vector<int>>> batches(kEpochBatches);
  for (auto& batch : batches) {
    for (int b = 0; b < kBatch; ++b) batch.push_back(NextTuple(schema, &rng));
  }
  return batches;
}

struct EpochRun {
  double timed_ms = 0.0;      ///< InsertBatch + Mups over the epoch
  std::vector<double> insert_us, read_us;  ///< traced runs only
  int64_t frontier_sum = 0;
  int64_t patched = 0, retired = 0, discovered = 0;
};

/// Streams one epoch into a clone of the base index, then checks the
/// maintained frontier against FindMups on the materialised dataset.
EpochRun RunEpoch(const Base& base, const data::AttributeSchema& schema,
                  const std::vector<std::vector<std::vector<int>>>& batches,
                  bool traced, bool inject_stale) {
  EpochRun out;
  coverage::IncrementalMupIndex index = *base.index;
  if (traced) {
    out.insert_us.reserve(batches.size());
    out.read_us.reserve(batches.size());
  }
  const Clock::time_point start = Clock::now();
  for (size_t b = 0; b < batches.size(); ++b) {
    // The known-bad outcome: one batch never reaches the index.
    const bool skip = inject_stale && b == batches.size() / 2;
    Clock::time_point t = Clock::now();
    if (!skip && !index.InsertBatch(batches[b]).ok()) {
      throw std::runtime_error("InsertBatch failed");
    }
    if (traced) {
      const Clock::time_point now = Clock::now();
      out.insert_us.push_back(MsBetween(t, now) * 1000.0);
      t = now;
    }
    const std::vector<coverage::Mup> mups = index.Mups();
    if (traced) out.read_us.push_back(MsSince(t) * 1000.0);
    out.frontier_sum += static_cast<int64_t>(mups.size());
  }
  out.timed_ms = MsSince(start);
  out.patched = index.patched() - base.index->patched();
  out.retired = index.retired() - base.index->retired();
  out.discovered = index.discovered() - base.index->discovered();

  coverage::PatternCounter reference = *base.counter;
  for (const auto& batch : batches) {
    for (const std::vector<int>& values : batch) {
      if (!reference.AddTuple(values).ok()) {
        throw std::runtime_error("reference AddTuple failed");
      }
    }
  }
  coverage::MupFinder finder(schema, reference);
  Require(kCheckFrontier, CheckFrontier(index.Mups(), finder.FindMups(AuditOptions())));
  return out;
}

}  // namespace

WorkloadResult RunAuditStream(const Args& args) {
  WorkloadResult result;
  const data::AttributeSchema schema = StreamSchema();

  std::vector<double> setup_s;
  std::optional<Base> base;
  for (int i = 0; i < kSetupRepeats; ++i) {
    base.reset();
    const Clock::time_point start = Clock::now();
    base.emplace(BuildBase(schema));
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  coverage::MupFinder finder(schema, *base->counter);
  Require(kCheckFrontier,
          CheckFrontier(base->index->Mups(), finder.FindMups(AuditOptions())));

  // Reads and writes interleave over the whole run: each cycle streams
  // one epoch, then runs kAuditsPerEpoch full audits of the base. A traced
  // run spends half its time here, then replays the same cycles traced.
  const double budget_ms = args.seconds * 1000.0 * (args.trace ? 0.5 : 1.0);
  std::vector<double> audit_ms;
  std::vector<EpochRun> epochs;
  const Clock::time_point loop_start = Clock::now();
  while (epochs.empty() || MsSince(loop_start) < budget_ms) {
    epochs.push_back(RunEpoch(*base, schema,
                              EpochStream(schema, args.seed, epochs.size()),
                              /*traced=*/false,
                              args.inject == Inject::kStaleFrontier));
    for (int a = 0; a < kAuditsPerEpoch; ++a) {
      const Clock::time_point start = Clock::now();
      const std::vector<coverage::Mup> mups = finder.FindMups(AuditOptions());
      audit_ms.push_back(MsSince(start));
      if (mups.empty()) throw std::runtime_error("audit found no MUPs");
    }
  }

  double write_ms = 0.0;
  std::vector<double> epoch_rates;
  for (const EpochRun& e : epochs) {
    write_ms += e.timed_ms;
    epoch_rates.push_back(kEpochBatches * kBatch / (e.timed_ms / 1000.0));
  }
  const double ingest_per_s = Median(epoch_rates);
  int64_t within = 0;
  for (const double ms : audit_ms) within += ms <= kAuditLimitMs ? 1 : 0;
  result.attempted =
      static_cast<int64_t>(audit_ms.size()) + static_cast<int64_t>(epochs.size()) * kEpochBatches;

  result.end_to_end["setup_s"] = Median(setup_s);
  result.samples["setup_s"] = kSetupRepeats;
  result.end_to_end["latency_p50_ms"] = Median(audit_ms);
  result.end_to_end["latency_p90_ms"] = Quantile(audit_ms, 0.9);
  result.samples["latency_p50_ms"] = result.samples["latency_p90_ms"] =
      static_cast<int64_t>(audit_ms.size());
  result.end_to_end["goodput_share"] =
      static_cast<double>(within) / static_cast<double>(audit_ms.size());
  result.samples["goodput_share"] = static_cast<int64_t>(audit_ms.size());
  result.end_to_end["work_per_s"] = ingest_per_s;
  result.samples["work_per_s"] = static_cast<int64_t>(epochs.size());

  result.named["setup_s"] = WithUnit(Median(setup_s), "s");
  result.named["failed_share"] = WithUnit(0.0, "share");
  result.named["audit_p50_ms"] = WithUnit(Median(audit_ms), "ms");
  result.named["ingest_tuples_per_s"] = WithUnit(ingest_per_s, "1/s");

  if (args.trace) {
    auto& p = result.per_layer;
    // Reads again, each audit with its counter-query count.
    std::vector<double> traced_audit_ms;
    double count_queries = 0.0;
    for (size_t i = 0; i < audit_ms.size(); ++i) {
      const Clock::time_point start = Clock::now();
      const std::vector<coverage::Mup> mups = finder.FindMups(AuditOptions());
      traced_audit_ms.push_back(MsSince(start));
      count_queries += static_cast<double>(finder.last_count_queries());
      if (mups.empty()) throw std::runtime_error("audit found no MUPs");
    }
    // Writes again, every call timed alone.
    std::vector<double> insert_us, read_us;
    double traced_write_ms = 0.0, patched = 0.0, retired = 0.0, discovered = 0.0;
    int64_t frontier_reads = 0, frontier_sum = 0;
    for (size_t e = 0; e < epochs.size(); ++e) {
      const EpochRun run = RunEpoch(*base, schema, EpochStream(schema, args.seed, e),
                                    /*traced=*/true, /*inject_stale=*/false);
      traced_write_ms += run.timed_ms;
      insert_us.insert(insert_us.end(), run.insert_us.begin(), run.insert_us.end());
      read_us.insert(read_us.end(), run.read_us.begin(), run.read_us.end());
      patched += static_cast<double>(run.patched);
      retired += static_cast<double>(run.retired);
      discovered += static_cast<double>(run.discovered);
      frontier_sum += run.frontier_sum;
      frontier_reads += kEpochBatches;
    }
    double audit_total = 0.0, traced_audit_total = 0.0;
    for (const double ms : audit_ms) audit_total += ms;
    for (const double ms : traced_audit_ms) traced_audit_total += ms;
    const double audits = static_cast<double>(audit_ms.size());
    const double epoch_count = static_cast<double>(epochs.size());
    p["coverage.find_mups_ms"] = Median(traced_audit_ms);
    p["coverage.count_queries"] = count_queries / audits;
    p["coverage.insert_batch_us.p50"] = Median(insert_us);
    p["coverage.insert_batch_us.p90"] = Quantile(insert_us, 0.9);
    p["coverage.mups_read_us"] = Median(read_us);
    p["coverage.frontier_size"] =
        static_cast<double>(frontier_sum) / static_cast<double>(frontier_reads);
    p["coverage.patched"] = patched / epoch_count;
    p["coverage.retired"] = retired / epoch_count;
    p["coverage.discovered"] = discovered / epoch_count;
    p["trace.overhead_share"] =
        (traced_audit_total + traced_write_ms) / (audit_total + write_ms);
    result.samples["coverage.find_mups_ms"] = static_cast<int64_t>(audits);
    result.samples["coverage.insert_batch_us.p50"] =
        result.samples["coverage.insert_batch_us.p90"] =
            static_cast<int64_t>(insert_us.size());
    result.samples["coverage.mups_read_us"] = static_cast<int64_t>(read_us.size());
  }
  result.end_to_end["peak_rss_mb"] = PeakRssMb();
  result.named["peak_rss_mb"] = WithUnit(PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
