#include "src/coverage/incremental_mup.h"

#include <optional>
#include <string>
#include <utility>

#include "src/obs/observability.h"
#include "src/util/stopwatch.h"

namespace chameleon::coverage {
namespace {

/// Amortized wall nanoseconds per inserted tuple. Wall time is inherently
/// machine/load-dependent, so the metric is exempt from the determinism
/// contract (obs::IsStableMetric).
const std::vector<double>& InsertNsBounds() {
  static const std::vector<double> bounds = {100.0,    250.0,    500.0,
                                             1000.0,   2500.0,   5000.0,
                                             10000.0,  25000.0,  50000.0,
                                             100000.0, 1000000.0};
  return bounds;
}

}  // namespace

IncrementalMupIndex::IncrementalMupIndex(const data::AttributeSchema& schema,
                                         const IncrementalMupOptions& options)
    : schema_(std::make_shared<data::AttributeSchema>(schema)),
      options_(options),
      counter_(*schema_) {
  RebuildFrontier();
}

util::Result<IncrementalMupIndex> IncrementalMupIndex::FromDataset(
    const data::Dataset& dataset, const IncrementalMupOptions& options) {
  IncrementalMupIndex index(dataset.schema(), options);
  for (const data::Tuple& tuple : dataset.tuples()) {
    CHAMELEON_RETURN_NOT_OK(index.counter_.AddTuple(tuple.values));
  }
  // One full traversal over the loaded counter beats patching the empty
  // index tuple by tuple, and gets the parallel FindMups for free.
  index.RebuildFrontier();
  return index;
}

void IncrementalMupIndex::RebuildFrontier() {
  MupFinder finder(*schema_, counter_);
  MupFinderOptions find_options;
  find_options.tau = options_.tau;
  find_options.max_level = options_.max_level;
  find_options.num_threads = options_.num_threads;
  // Deliberately no observability: the adopting pipeline decides how a
  // (re)build is journaled, and a warm clone must not re-emit the build's
  // mup.found events into a second request's registry.
  const std::vector<Mup> mups = finder.FindMups(find_options);
  live_.clear();
  for (const Mup& mup : mups) {
    live_.emplace(mup.pattern, mup.count);
  }
}

util::Status IncrementalMupIndex::ValidateTuple(
    const std::vector<int>& values) const {
  if (static_cast<int>(values.size()) != schema_->num_attributes()) {
    return util::Status::InvalidArgument(
        "tuple arity " + std::to_string(values.size()) +
        " does not match schema arity " +
        std::to_string(schema_->num_attributes()));
  }
  for (int i = 0; i < schema_->num_attributes(); ++i) {
    if (values[i] < 0 || values[i] >= schema_->attribute(i).cardinality()) {
      return util::Status::InvalidArgument(
          "value " + std::to_string(values[i]) + " out of domain for '" +
          schema_->attribute(i).name + "'");
    }
  }
  return util::Status::Ok();
}

util::Status IncrementalMupIndex::Insert(const std::vector<int>& values) {
  const std::vector<std::vector<int>> batch = {values};
  return InsertBatch(batch);
}

util::Status IncrementalMupIndex::InsertBatch(
    const std::vector<std::vector<int>>& batch) {
  if (batch.empty()) return util::Status::Ok();
  // Validate everything up front: a failed batch must change nothing, and
  // PatternCounter only validates per tuple.
  for (const std::vector<int>& values : batch) {
    CHAMELEON_RETURN_NOT_OK(ValidateTuple(values));
  }

  obs::Observability* const obs = options_.observability;
  std::optional<util::Stopwatch> timer;
  if (obs != nullptr) timer.emplace();
  const int64_t patched_before = patched_total_;
  const int64_t retired_before = retired_total_;
  const int64_t discovered_before = discovered_total_;

  for (const std::vector<int>& values : batch) {
    // Cannot fail: ValidateTuple mirrors AddTuple's checks.
    CHAMELEON_RETURN_NOT_OK(counter_.AddTuple(values));
  }
  PatchFrontier(batch);

  if (obs != nullptr) {
    obs->registry.Counter("mup.incremental.patched")
        ->Increment(patched_total_ - patched_before);
    obs->registry.Counter("mup.incremental.retired")
        ->Increment(retired_total_ - retired_before);
    obs->registry.Counter("mup.incremental.discovered")
        ->Increment(discovered_total_ - discovered_before);
    obs->registry.Histogram("mup.incremental.insert_ns", InsertNsBounds())
        ->Observe(timer->ElapsedSeconds() * 1e9 /
                  static_cast<double>(batch.size()));
  }
  return util::Status::Ok();
}

void IncrementalMupIndex::PatchFrontier(
    const std::vector<std::vector<int>>& batch) {
  // 1. Patch: bump each live MUP by its number of matches. Counts stay
  // exact (the stored count was |D ∩ P| and the batch is now part of D),
  // so Mups() never has to re-query the counter.
  std::vector<data::Pattern> crossed;
  for (auto& entry : live_) {
    int64_t delta = 0;
    for (const std::vector<int>& values : batch) {
      if (entry.first.Matches(values)) ++delta;
    }
    if (delta == 0) continue;
    entry.second += delta;
    ++patched_total_;
    if (entry.second >= options_.tau) crossed.push_back(entry.first);
  }
  if (crossed.empty()) return;

  // 2. Retire every MUP that crossed tau. The traversal's results do not
  // depend on seed order, so hash-map order is fine here.
  CountCache counts;
  for (const data::Pattern& pattern : crossed) {
    counts.emplace(pattern, live_.at(pattern));
    live_.erase(pattern);
  }
  retired_total_ += static_cast<int64_t>(crossed.size());

  // 3. Expand only below the retired MUPs. Everything down there was
  // uncovered before this batch (count monotonicity), i.e. it is exactly
  // the region a full traversal prunes; re-running FindMups'
  // traversal from the retired MUPs with fresh counts surfaces every
  // newly-exposed MUP. Patterns whose uncovered→covered flip happened
  // under a *different* ancestor are still reached: any flipped chain
  // tops out at a retired MUP. Parents outside the region kept their old
  // coverage status, so the traversal's on-demand counts are exact. A
  // patch touches a handful of nodes, so it runs inline (no pool).
  MupFinderOptions patch_options;
  patch_options.tau = options_.tau;
  patch_options.max_level = options_.max_level;
  patch_options.num_threads = 1;
  const MupFinder finder(*schema_, counter_);
  for (Mup& mup : finder.Traverse(std::move(crossed), &counts, patch_options)) {
    live_.emplace(std::move(mup.pattern), mup.count);
    ++discovered_total_;
  }
}

std::vector<Mup> IncrementalMupIndex::Mups() const {
  std::vector<Mup> mups;
  mups.reserve(live_.size());
  for (const auto& entry : live_) {
    mups.push_back(
        Mup{entry.first, entry.second, options_.tau - entry.second});
  }
  SortMups(&mups);
  return mups;
}

bool IncrementalMupIndex::SchemaMatches(
    const data::AttributeSchema& other) const {
  if (other.num_attributes() != schema_->num_attributes()) return false;
  for (int i = 0; i < schema_->num_attributes(); ++i) {
    if (other.attribute(i).cardinality() !=
        schema_->attribute(i).cardinality()) {
      return false;
    }
  }
  return true;
}

}  // namespace chameleon::coverage
