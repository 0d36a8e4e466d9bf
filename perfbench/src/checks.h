#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

// The benchmark's correctness checks, as pure functions over outcomes.
// Each returns an empty string when the outcome is correct and a one-line
// description of the violation otherwise; workloads pass the result to
// Require(), which fails the command. tests/checks_test.cc feeds each one
// known-bad outcomes.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/chameleon.h"
#include "src/coverage/mup_finder.h"
#include "src/fm/corpus.h"

namespace perfbench {

namespace core = chameleon::core;
namespace coverage = chameleon::coverage;
namespace data = chameleon::data;
namespace fm = chameleon::fm;

inline constexpr char kCheckGrowth[] = "corpus-grows-by-accepted";
inline constexpr char kCheckPlanTargets[] = "synthetic-tuples-match-plan";
inline constexpr char kCheckResolved[] = "resolved-repair-leaves-no-mup";
inline constexpr char kCheckReplayDigest[] = "staged-replay-digest";
inline constexpr char kCheckTerminalFrames[] = "one-terminal-frame-per-request";
inline constexpr char kCheckTwinDigest[] = "incremental-twin-digest";
inline constexpr char kCheckDaemonIdle[] = "daemon-idle-after-drain";
inline constexpr char kCheckFrontier[] = "incremental-frontier-equals-findmups";

/// The repaired corpus holds exactly `accepted` more tuples than the base.
std::string CheckCorpusGrowth(size_t base_size, size_t repaired_size,
                              int64_t accepted);

/// Every tuple past `base_size` is synthetic, matches a plan entry's
/// combination, and no entry received more tuples than it asked for.
std::string CheckSyntheticMatchPlan(const fm::Corpus& repaired,
                                    size_t base_size,
                                    const core::CombinationPlan& plan);

/// A report marked fully_resolved leaves none of its initial MUPs among
/// `mups_after`, a fresh FindMups of the repaired corpus at the same tau.
std::string CheckResolvedMupsGone(const core::RepairReport& report,
                                  const std::vector<coverage::Mup>& mups_after);

/// Two digests of what must be the same run are equal.
std::string CheckDigestsEqual(const std::string& what,
                              const std::string& expected,
                              const std::string& actual);

/// Every id in `sent` received exactly one terminal frame (report or
/// error); `terminal_frames` counts them by id.
std::string CheckTerminalFrames(const std::vector<std::string>& sent,
                                const std::map<std::string, int>& terminal_frames);

/// (incremental digest, non-incremental digest) pairs of twin requests
/// are equal pairwise.
std::string CheckTwinDigests(
    const std::vector<std::pair<std::string, std::string>>& twins);

/// No request is still queued or running once the daemon drained.
std::string CheckDaemonIdle(int64_t active);

/// The maintained frontier equals a full FindMups, order-normalised.
std::string CheckFrontier(std::vector<coverage::Mup> incremental,
                          std::vector<coverage::Mup> full);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
