#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(NDEBUG)
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// All digits of a double: 17 significant digits round-trip exactly.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--inject") {
      if (value == "drop-report") {
        args.inject = Inject::kDropReport;
      } else if (value == "replay-digest") {
        args.inject = Inject::kReplayDigest;
      } else if (value == "resolved-survivor") {
        args.inject = Inject::kResolvedSurvivor;
      } else if (value == "stale-frontier") {
        args.inject = Inject::kStaleFrontier;
      } else {
        throw std::invalid_argument("unknown --inject " + value);
      }
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

uint64_t DeriveSeed(uint64_t base, uint64_t index) {
  uint64_t z = base * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

void Require(const std::string& check, const std::string& error) {
  if (!error.empty()) throw CheckFailure(check, error);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string HostRecord() {
  if (!kOptimized || !kNdebug) {
    throw std::runtime_error(
        "refusing to report from a build without optimisation and NDEBUG "
        "(build type " PERFBENCH_BUILD_TYPE ")");
  }
  std::string compiler = "unknown";
#if defined(__clang__)
  compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  compiler = std::string("gcc ") + __VERSION__;
#endif
  return "{\"nproc\":" + std::to_string(HardwareThreads()) +
         ",\"compiler\":\"" + JsonEscape(compiler) + "\",\"cpu\":\"" +
         JsonEscape(CpuModel()) + "\",\"build_type\":\"" +
         PERFBENCH_BUILD_TYPE + "\",\"optimized\":true,\"ndebug\":true}";
}

std::string ResultLine(int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string WithUnit(double value, const std::string& unit) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return std::string(buffer) + " " + unit;
}

}  // namespace perfbench
