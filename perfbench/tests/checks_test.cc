// Unit tests of the benchmark's correctness checks: each check passes a
// known-good outcome and flags every known-bad one. Exit 0 when all pass.
//
//   cmake --build <tree> --target perfbench_checks_test && <tree>/perfbench_checks_test

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "src/data/pattern.h"
#include "src/datasets/feret.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

coverage::Mup MakeMup(std::vector<int> cells, int64_t count, int64_t tau) {
  return coverage::Mup{data::Pattern(std::move(cells)), count, tau - count};
}

fm::Corpus TinyCorpus() {
  fm::Corpus corpus;
  corpus.dataset = data::Dataset(chameleon::datasets::FeretSchema());
  for (int i = 0; i < 3; ++i) {
    data::Tuple tuple;
    tuple.values = {0, 0};
    if (!corpus.AddAnnotationOnly(std::move(tuple)).ok()) ++failures;
  }
  return corpus;
}

void AddSynthetic(fm::Corpus* corpus, std::vector<int> values) {
  data::Tuple tuple;
  tuple.values = std::move(values);
  tuple.synthetic = true;
  if (!corpus->AddAnnotationOnly(std::move(tuple)).ok()) ++failures;
}

void TestGrowth() {
  Expect(CheckCorpusGrowth(10, 13, 3).empty(), "growth by accepted passes");
  Expect(!CheckCorpusGrowth(10, 12, 3).empty(), "short growth fails");
  Expect(!CheckCorpusGrowth(10, 14, 3).empty(), "extra growth fails");
}

void TestPlanTargets() {
  const core::CombinationPlan plan = {{{1, 4}, 2}};
  fm::Corpus good = TinyCorpus();
  AddSynthetic(&good, {1, 4});
  AddSynthetic(&good, {1, 4});
  Expect(CheckSyntheticMatchPlan(good, 3, plan).empty(), "plan targets pass");

  fm::Corpus off_plan = TinyCorpus();
  AddSynthetic(&off_plan, {0, 4});
  Expect(!CheckSyntheticMatchPlan(off_plan, 3, plan).empty(),
         "a tuple outside the plan fails");

  fm::Corpus overfilled = good;
  AddSynthetic(&overfilled, {1, 4});
  Expect(!CheckSyntheticMatchPlan(overfilled, 3, plan).empty(),
         "more tuples than planned fails");

  fm::Corpus real_tail = TinyCorpus();
  data::Tuple tuple;
  tuple.values = {1, 4};
  if (!real_tail.AddAnnotationOnly(std::move(tuple)).ok()) ++failures;
  Expect(!CheckSyntheticMatchPlan(real_tail, 3, plan).empty(),
         "a non-synthetic tuple past the base fails");
}

void TestResolved() {
  core::RepairReport report;
  report.initial_mups = {MakeMup({-1, 4}, 0, 100)};
  report.fully_resolved = true;
  Expect(CheckResolvedMupsGone(report, {MakeMup({1, 3}, 5, 100)}).empty(),
         "resolved report with its MUP gone passes");
  Expect(!CheckResolvedMupsGone(report, {MakeMup({-1, 4}, 40, 100)}).empty(),
         "resolved report whose MUP survives fails");
  report.fully_resolved = false;
  Expect(CheckResolvedMupsGone(report, {MakeMup({-1, 4}, 40, 100)}).empty(),
         "an unresolved report is not held to resolution");
}

void TestDigests() {
  Expect(CheckDigestsEqual("replay", "cc25d15a6aa5bbf1", "cc25d15a6aa5bbf1").empty(),
         "equal digests pass");
  Expect(!CheckDigestsEqual("replay", "cc25d15a6aa5bbf1", "cc25d15a6aa5bbf2").empty(),
         "a mismatched replay digest fails");
  Expect(CheckTwinDigests({{"a", "a"}, {"b", "b"}}).empty(), "equal twins pass");
  Expect(!CheckTwinDigests({{"a", "a"}, {"b", "c"}}).empty(),
         "a twin with another digest fails");
}

void TestTerminalFrames() {
  const std::vector<std::string> sent = {"r1", "r2"};
  Expect(CheckTerminalFrames(sent, {{"r1", 1}, {"r2", 1}}).empty(),
         "one terminal frame each passes");
  Expect(!CheckTerminalFrames(sent, {{"r1", 1}}).empty(),
         "a dropped report frame fails");
  Expect(!CheckTerminalFrames(sent, {{"r1", 1}, {"r2", 2}}).empty(),
         "a duplicated report frame fails");
  Expect(!CheckTerminalFrames(sent, {{"r1", 1}, {"r2", 1}, {"r9", 1}}).empty(),
         "a frame for an unknown request fails");
  Expect(CheckDaemonIdle(0).empty(), "an idle daemon passes");
  Expect(!CheckDaemonIdle(1).empty(), "an active request after drain fails");
}

void TestFrontier() {
  const std::vector<coverage::Mup> full = {MakeMup({0, -1}, 3, 50),
                                           MakeMup({-1, 2}, 7, 50)};
  const std::vector<coverage::Mup> reordered = {full[1], full[0]};
  Expect(CheckFrontier(reordered, full).empty(),
         "an order-permuted frontier passes");
  std::vector<coverage::Mup> stale = full;
  stale[0].count = 2;
  stale[0].gap = 48;
  Expect(!CheckFrontier(stale, full).empty(), "a stale count fails");
  Expect(!CheckFrontier({full[0]}, full).empty(), "a missing MUP fails");
  Expect(!CheckFrontier({full[0], MakeMup({1, 1}, 1, 50)}, full).empty(),
         "a wrong MUP fails");
}

}  // namespace

int main() {
  TestGrowth();
  TestPlanTargets();
  TestResolved();
  TestDigests();
  TestTerminalFrames();
  TestFrontier();
  if (failures > 0) {
    std::fprintf(stderr, "%d check test(s) failed\n", failures);
    return 1;
  }
  std::printf("all check tests passed\n");
  return 0;
}
