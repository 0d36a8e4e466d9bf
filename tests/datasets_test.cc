#include "gtest/gtest.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/datasets/feret.h"
#include "src/datasets/utkface.h"
#include "src/embedding/simulated_embedder.h"

namespace chameleon::datasets {
namespace {

TEST(FeretTest, SchemaShape) {
  const auto schema = FeretSchema();
  EXPECT_EQ(schema.num_attributes(), 2);
  EXPECT_EQ(schema.attribute(kFeretGender).cardinality(), 2);
  EXPECT_EQ(schema.attribute(kFeretEthnicity).cardinality(), 5);
  EXPECT_FALSE(schema.attribute(kFeretEthnicity).ordinal);
  EXPECT_EQ(schema.NumCombinations(), 10);
}

TEST(FeretTest, TrainCountsMatchTable2) {
  const auto counts = FeretTrainCounts();
  int64_t total = 0;
  int64_t white = 0;
  int64_t middle_eastern_female = 0;
  for (const auto& [values, count] : counts) {
    total += count;
    if (values[kFeretEthnicity] == kFeretWhite) white += count;
    if (values[kFeretEthnicity] == kFeretMiddleEastern &&
        values[kFeretGender] == 1) {
      middle_eastern_female += count;
    }
  }
  EXPECT_EQ(total, 756);
  EXPECT_EQ(white, 560);
  EXPECT_EQ(middle_eastern_female, 1);
}

TEST(FeretTest, CorpusMatchesCountsAnnotationOnly) {
  const embedding::SimulatedEmbedder embedder;
  FeretOptions options;
  options.render.render_images = false;
  auto corpus = MakeFeret(&embedder, options);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->dataset.size(), 756u);
  EXPECT_EQ(corpus->num_images(), 0u);
  EXPECT_EQ(corpus->dataset.CountMatching(
                data::Pattern({data::Pattern::kUnspecified, kFeretBlack})),
            40);
}

TEST(FeretTest, RenderedCorpusHasPayloadsAndEmbeddings) {
  const embedding::SimulatedEmbedder embedder;
  FeretOptions options;
  auto corpus = MakeFeret(&embedder, options);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->num_images(), 756u);
  EXPECT_EQ(corpus->realism.size(), 756u);
  for (const auto& t : corpus->dataset.tuples()) {
    EXPECT_EQ(t.embedding.size(), static_cast<size_t>(embedder.dim()));
    EXPECT_GE(t.payload_id, 0);
    EXPECT_FALSE(t.synthetic);
  }
  // Real-photo realism sits near the calibration target.
  double mean = 0.0;
  for (double r : corpus->realism) mean += r;
  mean /= corpus->realism.size();
  EXPECT_NEAR(mean, 0.92, 0.02);
}

TEST(FeretTest, UncoveredGroupsAtPaperThreshold) {
  const embedding::SimulatedEmbedder embedder;
  FeretOptions options;
  options.render.render_images = false;
  auto corpus = MakeFeret(&embedder, options);
  ASSERT_TRUE(corpus.ok());
  const auto counter = *coverage::PatternCounter::FromDataset(corpus->dataset);
  coverage::MupFinder finder(corpus->dataset.schema(), counter);
  coverage::MupFinderOptions mup_options;
  mup_options.tau = 100;
  const auto mups = finder.FindMups(mup_options);
  // The paper: Black, Hispanic and Middle Eastern are the uncovered
  // level-1 groups at tau = 100. (Deeper level-2 MUPs under covered
  // parents may exist too; the repair targets the minimum level.)
  const auto level1 = coverage::MupFinder::MinLevel(mups);
  ASSERT_EQ(level1.size(), 3u);
  for (const auto& m : level1) {
    EXPECT_EQ(m.Level(), 1);
    EXPECT_TRUE(m.pattern.IsSpecified(kFeretEthnicity));
    const int e = m.pattern.cell(kFeretEthnicity);
    EXPECT_TRUE(e == kFeretBlack || e == kFeretHispanic ||
                e == kFeretMiddleEastern);
  }
}

TEST(FeretTest, TestSetValidatesArguments) {
  const embedding::SimulatedEmbedder embedder;
  FeretOptions options;
  options.render.render_images = false;
  EXPECT_FALSE(MakeFeretTestSet(&embedder, options, {1, 2}).ok());
  auto test = MakeFeretTestSet(&embedder, options, {10, 10, 10, 10, 10});
  ASSERT_TRUE(test.ok());
  EXPECT_EQ(test->dataset.size(), 50u);
}

TEST(UtkFaceTest, SchemaShape) {
  const auto schema = UtkFaceSchema();
  EXPECT_EQ(schema.num_attributes(), 3);
  EXPECT_TRUE(schema.attribute(kUtkAgeGroup).ordinal);
  EXPECT_EQ(schema.NumCombinations(), 2 * 5 * 9);
}

TEST(UtkFaceTest, CorpusSizeAndMarginals) {
  const embedding::SimulatedEmbedder embedder;
  UtkFaceOptions options;
  options.render.render_images = false;
  options.num_tuples = 20000;
  auto corpus = MakeUtkFace(&embedder, options);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->dataset.size(), 20000u);
  // White is the plurality race; the 20-29 bucket is the modal age.
  const auto white = corpus->dataset.CountMatching(data::Pattern(
      {data::Pattern::kUnspecified, 0, data::Pattern::kUnspecified}));
  EXPECT_GT(white, 7000);
  const auto modal_age = corpus->dataset.CountMatching(data::Pattern(
      {data::Pattern::kUnspecified, data::Pattern::kUnspecified, 3}));
  EXPECT_GT(modal_age, 4500);
}

TEST(UtkFaceTest, Figure6ThresholdRegimes) {
  const embedding::SimulatedEmbedder embedder;
  UtkFaceOptions options;
  options.render.render_images = false;
  auto corpus = MakeUtkFace(&embedder, options);
  ASSERT_TRUE(corpus.ok());
  const auto counter = *coverage::PatternCounter::FromDataset(corpus->dataset);
  coverage::MupFinder finder(corpus->dataset.schema(), counter);

  // tau = 200/350: no level-1 MUPs; tau = 1000/2000: level-1 MUPs exist.
  for (int64_t tau : {200, 350}) {
    coverage::MupFinderOptions mup_options;
    mup_options.tau = tau;
    const auto mups = finder.FindMups(mup_options);
    ASSERT_FALSE(mups.empty()) << tau;
    EXPECT_GE(coverage::MupFinder::MinLevel(mups)[0].Level(), 2) << tau;
  }
  for (int64_t tau : {1000, 2000}) {
    coverage::MupFinderOptions mup_options;
    mup_options.tau = tau;
    const auto mups = finder.FindMups(mup_options);
    ASSERT_FALSE(mups.empty()) << tau;
    EXPECT_EQ(coverage::MupFinder::MinLevel(mups)[0].Level(), 1) << tau;
  }
}

TEST(UtkFaceTest, ChallengeRarePatternsAreSixteenLevel3) {
  const auto rare = ChallengeRarePatterns();
  EXPECT_EQ(rare.size(), 16u);
  for (const auto& p : rare) {
    EXPECT_EQ(p.Level(), 3);
  }
  // Two per age bucket 1..8, differing in gender and race.
  for (int age = 1; age <= 8; ++age) {
    int found = 0;
    for (const auto& p : rare) {
      if (p.cell(kUtkAgeGroup) == age) ++found;
    }
    EXPECT_EQ(found, 2) << "age bucket " << age;
  }
}

TEST(UtkFaceTest, ChallengeSubsetYieldsExactlyTheDesignedMups) {
  const embedding::SimulatedEmbedder embedder;
  ChallengeOptions options;
  options.render.render_images = false;
  auto corpus = MakeUtkFaceChallengeSubset(&embedder, options);
  ASSERT_TRUE(corpus.ok());
  const auto counter = *coverage::PatternCounter::FromDataset(corpus->dataset);
  coverage::MupFinder finder(corpus->dataset.schema(), counter);
  coverage::MupFinderOptions mup_options;
  mup_options.tau = 10;
  const auto mups = finder.FindMups(mup_options);
  ASSERT_EQ(mups.size(), 16u);
  const auto rare = ChallengeRarePatterns();
  for (const auto& m : mups) {
    EXPECT_EQ(m.Level(), 3);
    EXPECT_EQ(m.count, options.rare_count);
    bool designed = false;
    for (const auto& p : rare) designed |= p == m.pattern;
    EXPECT_TRUE(designed) << m.pattern.ToString();
  }
}

}  // namespace
}  // namespace chameleon::datasets
