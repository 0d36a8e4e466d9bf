#include "perfbench/src/checks.h"

#include <algorithm>

namespace perfbench {
namespace {

std::string Join(const std::vector<int>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out;
}

void Normalise(std::vector<coverage::Mup>* mups) {
  std::sort(mups->begin(), mups->end(),
            [](const coverage::Mup& a, const coverage::Mup& b) {
              return a.pattern < b.pattern;
            });
}

}  // namespace

std::string CheckCorpusGrowth(size_t base_size, size_t repaired_size,
                              int64_t accepted) {
  if (static_cast<int64_t>(repaired_size) - static_cast<int64_t>(base_size) ==
      accepted) {
    return "";
  }
  return "corpus grew from " + std::to_string(base_size) + " to " +
         std::to_string(repaired_size) + " tuples but the report accepted " +
         std::to_string(accepted);
}

std::string CheckSyntheticMatchPlan(const fm::Corpus& repaired,
                                    size_t base_size,
                                    const core::CombinationPlan& plan) {
  std::map<std::vector<int>, int64_t> remaining;
  for (const core::PlanEntry& entry : plan) remaining[entry.values] += entry.count;
  for (size_t i = base_size; i < repaired.dataset.size(); ++i) {
    const data::Tuple& tuple = repaired.dataset.tuple(i);
    if (!tuple.synthetic) {
      return "tuple " + std::to_string(i) + " past the base is not synthetic";
    }
    auto it = remaining.find(tuple.values);
    if (it == remaining.end()) {
      return "synthetic tuple " + std::to_string(i) + " (" +
             Join(tuple.values) + ") matches no plan target";
    }
    if (--it->second < 0) {
      return "plan target (" + Join(tuple.values) +
             ") received more tuples than planned";
    }
  }
  return "";
}

std::string CheckResolvedMupsGone(const core::RepairReport& report,
                                  const std::vector<coverage::Mup>& mups_after) {
  if (!report.fully_resolved) return "";
  for (const coverage::Mup& before : report.initial_mups) {
    for (const coverage::Mup& after : mups_after) {
      if (after.pattern == before.pattern) {
        return "report is fully_resolved but MUP " + before.pattern.ToString() +
               " survives with count " + std::to_string(after.count);
      }
    }
  }
  return "";
}

std::string CheckDigestsEqual(const std::string& what,
                              const std::string& expected,
                              const std::string& actual) {
  if (expected == actual) return "";
  return what + ": digest " + actual + " != " + expected;
}

std::string CheckTerminalFrames(
    const std::vector<std::string>& sent,
    const std::map<std::string, int>& terminal_frames) {
  for (const std::string& id : sent) {
    auto it = terminal_frames.find(id);
    const int count = it == terminal_frames.end() ? 0 : it->second;
    if (count != 1) {
      return "request " + id + " received " + std::to_string(count) +
             " terminal frames";
    }
  }
  for (const auto& [id, count] : terminal_frames) {
    if (std::find(sent.begin(), sent.end(), id) == sent.end()) {
      return "terminal frame for unknown request " + id;
    }
  }
  return "";
}

std::string CheckTwinDigests(
    const std::vector<std::pair<std::string, std::string>>& twins) {
  for (size_t i = 0; i < twins.size(); ++i) {
    if (twins[i].first != twins[i].second) {
      return "twin pair " + std::to_string(i) + ": incremental digest " +
             twins[i].first + " != non-incremental digest " + twins[i].second;
    }
  }
  return "";
}

std::string CheckDaemonIdle(int64_t active) {
  if (active == 0) return "";
  return std::to_string(active) + " requests still active after drain";
}

std::string CheckFrontier(std::vector<coverage::Mup> incremental,
                          std::vector<coverage::Mup> full) {
  Normalise(&incremental);
  Normalise(&full);
  if (incremental.size() != full.size()) {
    return "frontier holds " + std::to_string(incremental.size()) +
           " MUPs, FindMups finds " + std::to_string(full.size());
  }
  for (size_t i = 0; i < full.size(); ++i) {
    if (incremental[i].pattern != full[i].pattern ||
        incremental[i].count != full[i].count ||
        incremental[i].gap != full[i].gap) {
      return "frontier MUP " + incremental[i].pattern.ToString() + " (count " +
             std::to_string(incremental[i].count) + ") != FindMups MUP " +
             full[i].pattern.ToString() + " (count " +
             std::to_string(full[i].count) + ")";
    }
  }
  return "";
}

}  // namespace perfbench
