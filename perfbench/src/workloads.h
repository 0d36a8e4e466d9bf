#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

// The three workloads. Each runs for Args::seconds, checks its outputs
// (throwing CheckFailure on a violation) and fills a WorkloadResult:
// every end-to-end metric BENCHMARK.json lists, and, in a traced run,
// whichever of its per-layer metrics the workload's layers produce (the
// rest report 0: that layer does no work on this workload).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

struct WorkloadResult {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Samples behind each timing, by metric name, for the printed table.
  std::map<std::string, int64_t> samples;
  /// The named end-to-end figures this workload has, by name, as
  /// "value unit"; main prints "n/a" for the rest.
  std::map<std::string, std::string> named;
  int64_t attempted = 0;
  int64_t failed = 0;
};

WorkloadResult RunRepairFeret(const Args& args);
WorkloadResult RunServeMixed(const Args& args);
WorkloadResult RunAuditStream(const Args& args);

/// The fifteen named end-to-end figures every run prints, in order;
/// WorkloadResult::named fills the ones a workload has.
inline constexpr const char* kNamedFigures[] = {
    "setup_s",           "peak_rss_mb",        "failed_share",
    "repair_p50_ms",     "repair_p90_ms",      "accepted_per_s",
    "queries_per_accepted", "resolved_share",  "low.latency_p50_ms",
    "low.latency_p90_ms", "high.latency_p50_ms", "high.latency_p90_ms",
    "high.goodput_share", "audit_p50_ms",      "ingest_tuples_per_s",
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
