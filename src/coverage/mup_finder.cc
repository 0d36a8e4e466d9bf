#include "src/coverage/mup_finder.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/obs/observability.h"
#include "src/util/thread_pool.h"

namespace chameleon::coverage {
namespace {

/// Patterns per ParallelFor chunk when counting a wave. Small enough to
/// balance skewed posting-list sizes, large enough to amortize dispatch.
constexpr int64_t kCountGrain = 8;

}  // namespace

void SortMups(std::vector<Mup>* mups) {
  std::sort(mups->begin(), mups->end(), [](const Mup& a, const Mup& b) {
    if (a.Level() != b.Level()) return a.Level() < b.Level();
    return a.pattern < b.pattern;
  });
}

MupFinder::MupFinder(const data::AttributeSchema& schema,
                     const PatternCounter& counter)
    : schema_(&schema), counter_(&counter) {}

std::vector<Mup> MupFinder::FindMups(const MupFinderOptions& options) const {
  obs::Observability* const obs = options.observability;
  std::optional<obs::Span> span;
  if (obs != nullptr) span.emplace(obs->tracer.StartSpan("mup.find"));

  CountCache counts;
  std::vector<Mup> mups =
      Traverse({data::Pattern(schema_->num_attributes())}, &counts, options);
  SortMups(&mups);

  if (obs != nullptr) {
    obs->registry.Counter("mup.found")->Increment(
        static_cast<int64_t>(mups.size()));
    obs->registry.Counter("mup.count_queries")->Increment(
        last_count_queries());
    for (const Mup& mup : mups) {
      obs->journal.Record(obs::JournalEvent("mup.found")
                              .Set("pattern", mup.pattern.ToString())
                              .Set("count", mup.count)
                              .Set("gap", mup.gap));
    }
  }
  return mups;
}

std::vector<Mup> MupFinder::Traverse(std::vector<data::Pattern> seeds,
                                     CountCache* counts,
                                     const MupFinderOptions& options) const {
  const int d = schema_->num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;
  const int width = util::ThreadPool::ResolveThreadCount(options.num_threads);
  std::optional<util::ThreadPool> pool;
  if (width > 1) pool.emplace(width);
  int64_t queries = 0;

  auto count_of = [&](const data::Pattern& pattern) {
    auto [it, inserted] = counts->try_emplace(pattern, 0);
    if (inserted) {
      it->second = counter_->Count(pattern);
      ++queries;
    }
    return it->second;
  };

  std::vector<Mup> mups;
  std::unordered_set<data::Pattern, data::PatternHash> visited(seeds.begin(),
                                                               seeds.end());
  std::vector<data::Pattern> wave = std::move(seeds);
  while (!wave.empty()) {
    // Count the wave's uncached patterns as one batch: per-index slots,
    // merged into the cache in wave order, so the cache is the same at
    // every width.
    std::vector<const data::Pattern*> uncached;
    for (const data::Pattern& pattern : wave) {
      if (counts->find(pattern) == counts->end()) uncached.push_back(&pattern);
    }
    std::vector<int64_t> results(uncached.size(), 0);
    auto count_range = [&](int64_t begin, int64_t end, int64_t /*chunk*/) {
      for (int64_t i = begin; i < end; ++i) {
        results[i] = counter_->Count(*uncached[i]);
      }
    };
    const auto total = static_cast<int64_t>(uncached.size());
    if (pool.has_value()) {
      pool->ParallelFor(total, kCountGrain, count_range);
    } else {
      count_range(0, total, 0);
    }
    for (size_t i = 0; i < uncached.size(); ++i) {
      counts->emplace(*uncached[i], results[i]);
    }
    queries += total;

    std::vector<data::Pattern> next;
    for (const data::Pattern& pattern : wave) {
      const int64_t count = counts->at(pattern);
      if (count >= options.tau) {
        // Covered: descend. Children of covered nodes are the only
        // candidates that can have all parents covered.
        if (pattern.Level() >= max_level) continue;
        for (auto& child : pattern.Children(*schema_)) {
          if (visited.insert(child).second) next.push_back(std::move(child));
        }
        continue;
      }
      // Uncovered: a MUP iff every parent is covered. (The root has no
      // parents and is a MUP when itself uncovered.) From the root every
      // parent was visited a wave earlier and is cached; a patch may meet
      // parents outside its region, whose counts are fetched on demand.
      bool all_parents_covered = true;
      for (const auto& parent : pattern.Parents()) {
        if (count_of(parent) < options.tau) {
          all_parents_covered = false;
          break;
        }
      }
      if (all_parents_covered) {
        mups.push_back(Mup{pattern, count, options.tau - count});
      }
    }
    wave = std::move(next);
  }

  last_count_queries_.store(queries, std::memory_order_relaxed);
  return mups;
}

std::vector<Mup> MupFinder::FindMupsNaive(const MupFinderOptions& options) const {
  const int d = schema_->num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  // Materialize every pattern level by level.
  std::vector<data::Pattern> current = {data::Pattern(d)};
  CountCache counts;
  counts.emplace(current[0], counter_->Count(current[0]));

  std::vector<Mup> mups;
  auto consider = [&](const data::Pattern& p) {
    const int64_t count = counts.at(p);
    if (count >= options.tau) return;
    for (const auto& parent : p.Parents()) {
      if (counts.at(parent) < options.tau) return;
    }
    mups.push_back(Mup{p, count, options.tau - count});
  };
  consider(current[0]);

  for (int level = 1; level <= max_level; ++level) {
    std::unordered_set<data::Pattern, data::PatternHash> next_set;
    for (const auto& p : current) {
      for (auto& child : p.Children(*schema_)) next_set.insert(std::move(child));
    }
    current.assign(next_set.begin(), next_set.end());
    for (const auto& p : current) {
      counts.emplace(p, counter_->Count(p));
    }
    for (const auto& p : current) consider(p);
  }

  SortMups(&mups);
  return mups;
}

std::vector<Mup> MupFinder::MinLevel(const std::vector<Mup>& mups) {
  if (mups.empty()) return {};
  int min_level = mups[0].Level();
  for (const auto& m : mups) min_level = std::min(min_level, m.Level());
  std::vector<Mup> out;
  for (const auto& m : mups) {
    if (m.Level() == min_level) out.push_back(m);
  }
  return out;
}

}  // namespace chameleon::coverage
