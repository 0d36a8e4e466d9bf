#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

// Shared plumbing for the perfbench workloads: arguments, derived seeds,
// quantiles, the result line, and the host record.

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

/// Known-bad outcomes the benchmark can be told to produce, so tests can
/// confirm each correctness check fails the command (tests/run_checks.py).
enum class Inject {
  kNone,
  kDropReport,      ///< serve-mixed: the client loses one report frame
  kReplayDigest,    ///< repair-feret: the staged replay runs a wrong seed
  kResolvedSurvivor,///< repair-feret: a resolved repair keeps a MUP
  kStaleFrontier,   ///< audit-stream: one batch never reaches the index
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::kNone;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--inject X]`.
/// Throws std::invalid_argument on anything else.
Args ParseArgs(int argc, char** argv);

/// Seed of the `index`-th operation of a run: SplitMix64 over the
/// workload seed, so every per-request and per-repair seed follows from
/// --seed alone.
uint64_t DeriveSeed(uint64_t base, uint64_t index);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// A correctness check that failed. The workload stops, the command
/// prints the check's name and detail to stderr and exits non-zero
/// without a result line.
class CheckFailure : public std::runtime_error {
 public:
  CheckFailure(const std::string& check, const std::string& detail)
      : std::runtime_error(check + ": " + detail), check_(check) {}
  const std::string& check() const { return check_; }

 private:
  std::string check_;
};

/// Throws CheckFailure(check, *error) when `error` is non-empty.
void Require(const std::string& check, const std::string& error);

/// One named metric as it goes into the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

/// Host record printed with every result: nproc, compiler and version,
/// CPU model, build type. Throws std::runtime_error for a build without
/// optimisation or NDEBUG, so such a build never reports a number.
std::string HostRecord();

/// Renders the final result line: exactly correct/attempted/failed/
/// metrics, every value with all its digits.
std::string ResultLine(int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// Formats a value with its unit for the summary table.
std::string WithUnit(double value, const std::string& unit);

int HardwareThreads();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
