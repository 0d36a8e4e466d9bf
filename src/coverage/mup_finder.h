#ifndef CHAMELEON_COVERAGE_MUP_FINDER_H_
#define CHAMELEON_COVERAGE_MUP_FINDER_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/coverage/pattern_counter.h"
#include "src/data/pattern.h"
#include "src/data/schema.h"

namespace chameleon::obs {
struct Observability;
}  // namespace chameleon::obs

namespace chameleon::coverage {

/// Configuration for MUP discovery.
struct MupFinderOptions {
  /// Coverage threshold tau: a subgroup g is uncovered when |g ∩ D| < tau.
  int64_t tau = 50;
  /// Only report MUPs at level <= max_level (d by default, i.e. all).
  int max_level = -1;
  /// Worker count for counting each traversal wave: 0 = hardware
  /// concurrency (the default), 1 = inline on the calling thread with no
  /// pool. Every setting visits the same patterns and issues the same
  /// Count() calls, so the reported MUPs (patterns, counts, gaps, order)
  /// and last_count_queries() are identical at every width.
  int num_threads = 0;
  /// Optional observability sink (not owned; null = no instrumentation).
  /// FindMups records a `mup.find` span, the `mup.found` /
  /// `mup.count_queries` counters, and one `mup.found` journal event per
  /// discovered MUP.
  obs::Observability* observability = nullptr;
};

/// One discovered Maximal Uncovered Pattern with its coverage count and
/// gap delta(M) = tau - |D ∩ M|.
struct Mup {
  data::Pattern pattern;
  int64_t count = 0;
  int64_t gap = 0;

  int Level() const { return pattern.Level(); }
};

/// Memoized pattern counts |D ∩ P|, shared by a traversal and its caller.
using CountCache =
    std::unordered_map<data::Pattern, int64_t, data::PatternHash>;

/// Sorts MUPs into the canonical output order: ascending level, then
/// lexicographic pattern.
void SortMups(std::vector<Mup>* mups);

/// Discovers all Maximal Uncovered Patterns (§2.3): patterns P with
/// |D ∩ P| < tau whose parents are all covered. Two algorithms:
///
///  * FindMups       — top-down lattice traversal expanding only covered
///                     nodes, with memoized counts (the practical
///                     algorithm); see Traverse.
///  * FindMupsNaive  — full lattice materialization with the same MUP
///                     predicate, used as a correctness oracle in tests
///                     and as the ablation baseline in benchmarks.
class MupFinder {
 public:
  MupFinder(const data::AttributeSchema& schema, const PatternCounter& counter);

  std::vector<Mup> FindMups(const MupFinderOptions& options) const;
  std::vector<Mup> FindMupsNaive(const MupFinderOptions& options) const;

  /// The one lattice walk behind FindMups (seeded with the root and an
  /// empty cache) and IncrementalMupIndex's patch (seeded with the MUPs
  /// that just crossed tau and their patched counts). Level-synchronous:
  /// each wave's uncached patterns are counted as one batch, covered
  /// patterns expand into the next wave (up to options.max_level), and an
  /// uncovered pattern is a MUP iff every parent is covered. Parent counts
  /// come from `counts`; a missing parent is counted on demand, stopping
  /// at the first uncovered one. `counts` holds exact counts on entry and
  /// on return. Returns the MUPs met, unsorted; observability is ignored.
  std::vector<Mup> Traverse(std::vector<data::Pattern> seeds,
                            CountCache* counts,
                            const MupFinderOptions& options) const;

  /// Restricts a MUP list to its minimum level: the set M* of §4.
  static std::vector<Mup> MinLevel(const std::vector<Mup>& mups);

  /// Number of Count() calls issued by the last FindMups or Traverse
  /// invocation (diagnostic; atomic so concurrent const calls stay
  /// race-free).
  int64_t last_count_queries() const {
    return last_count_queries_.load(std::memory_order_relaxed);
  }

 private:
  const data::AttributeSchema* schema_;
  const PatternCounter* counter_;
  mutable std::atomic<int64_t> last_count_queries_{0};
};

}  // namespace chameleon::coverage

#endif  // CHAMELEON_COVERAGE_MUP_FINDER_H_
