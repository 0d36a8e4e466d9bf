// perfbench: the repository benchmark. See perfbench/README.md.
//
//   perfbench --workload repair-feret|serve-mixed|audit-stream
//             --seed N --seconds S --trace 0|1
//
// Prints the host record, a table of every metric with its unit and
// sample count, the fifteen named end-to-end figures, and, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// A failed correctness check prints the check to stderr and exits 3
// without a result line.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "tools/obsctl/json.h"

namespace {

using namespace perfbench;

/// (name, unit) of every metric BENCHMARK.json lists under `key`
/// ("end_to_end" or "per_layer"), in file order. BENCHMARK.json at the
/// checkout root is the one list of metrics; the binary runs from there.
std::vector<std::pair<std::string, std::string>> ListedMetrics(
    const std::string& key) {
  std::ifstream in("BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  auto bench = chameleon::obsctl::ParseJson(text.str());
  const chameleon::obsctl::JsonValue* list =
      bench.ok() ? bench->Find(key) : nullptr;
  if (list == nullptr || !list->is_array()) {
    throw std::runtime_error("cannot read the " + key +
                             " metrics of BENCHMARK.json in the working "
                             "directory");
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& item : list->items) {
    out.emplace_back(item.StringOr("name", ""), item.StringOr("unit", ""));
  }
  return out;
}

/// The listed metrics with the workload's values. A required metric the
/// workload did not measure, or a value under a name the list lacks, is
/// a benchmark bug and throws. An unmeasured per-layer metric reads 0:
/// that layer does no work on this workload.
std::vector<Metric> Collect(const std::string& key,
                            const std::map<std::string, double>& values,
                            bool all_required) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : ListedMetrics(key)) {
    auto it = values.find(name);
    if (it == values.end() && all_required) {
      throw std::runtime_error("workload did not measure " + name);
    }
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values) {
    if (std::none_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; })) {
      throw std::runtime_error("BENCHMARK.json does not list " + key +
                               " metric " + name);
    }
  }
  return metrics;
}

int Run(const Args& args) {
  const std::string host = HostRecord();
  std::printf("host: %s\n", host.c_str());
  std::fflush(stdout);

  WorkloadResult result;
  if (args.workload == "repair-feret") {
    result = RunRepairFeret(args);
  } else if (args.workload == "serve-mixed") {
    result = RunServeMixed(args);
  } else if (args.workload == "audit-stream") {
    result = RunAuditStream(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("named end-to-end figures:\n");
  for (const char* name : kNamedFigures) {
    auto it = result.named.find(name);
    std::printf("  %-32s %s\n", name,
                it == result.named.end() ? "n/a" : it->second.c_str());
  }
  for (const auto& [name, value] : result.named) {
    if (std::find(std::begin(kNamedFigures), std::end(kNamedFigures), name) ==
        std::end(kNamedFigures)) {
      std::printf("  %-32s %s\n", name.c_str(), value.c_str());
    }
  }

  const std::vector<Metric> metrics =
      args.trace ? Collect("per_layer", result.per_layer, false)
                 : Collect("end_to_end", result.end_to_end, true);
  std::printf("metrics (%s):\n", args.trace ? "per layer" : "end to end");
  for (const Metric& m : metrics) {
    auto n = result.samples.find(m.name);
    std::printf("  %-36s %s", m.name.c_str(),
                WithUnit(m.value, m.unit).c_str());
    if (n != result.samples.end()) {
      std::printf("  (n=%lld)", static_cast<long long>(n->second));
    }
    std::printf("\n");
  }
  std::printf("%s\n", ResultLine(result.attempted, result.failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const CheckFailure& failure) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: CHECK FAILED [%s]\n", failure.what());
    return 3;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
