// Tests for the fm::Corpus container (tuple/payload wiring and the
// helper views the pipeline depends on), plus LoadCorpus's tolerance of
// Windows-style line endings vs. genuinely corrupt files.

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/datasets/feret.h"
#include "src/fm/corpus.h"
#include "src/fm/corpus_io.h"
#include "src/util/rng.h"

namespace chameleon::fm {
namespace {

data::Tuple MakeTuple(int gender, int ethnicity) {
  data::Tuple tuple;
  tuple.values = {gender, ethnicity};
  return tuple;
}

TEST(CorpusTest, AddWiresPayloadIds) {
  Corpus corpus;
  corpus.dataset = data::Dataset(datasets::FeretSchema());
  ASSERT_TRUE(
      corpus.Add(MakeTuple(0, 0), image::Image(4, 4, 3), 0.9).ok());
  ASSERT_TRUE(
      corpus.Add(MakeTuple(1, 1), image::Image(4, 4, 3), 0.8).ok());
  EXPECT_EQ(corpus.dataset.tuple(0).payload_id, 0);
  EXPECT_EQ(corpus.dataset.tuple(1).payload_id, 1);
  EXPECT_EQ(corpus.num_images(), 2u);
  EXPECT_EQ(corpus.realism.size(), 2u);
  EXPECT_DOUBLE_EQ(corpus.realism[1], 0.8);
}

TEST(CorpusTest, AddRejectsInvalidTuples) {
  Corpus corpus;
  corpus.dataset = data::Dataset(datasets::FeretSchema());
  EXPECT_FALSE(
      corpus.Add(MakeTuple(0, 99), image::Image(4, 4, 3), 0.9).ok());
  // The failed add must not leave an orphaned payload.
  EXPECT_EQ(corpus.num_images(), 0u);
}

TEST(CorpusTest, AnnotationOnlyHasNoPayload) {
  Corpus corpus;
  corpus.dataset = data::Dataset(datasets::FeretSchema());
  ASSERT_TRUE(corpus.AddAnnotationOnly(MakeTuple(0, 1)).ok());
  EXPECT_EQ(corpus.dataset.tuple(0).payload_id, -1);
  EXPECT_EQ(corpus.num_images(), 0u);
}

TEST(CorpusTest, RealTupleRealismSkipsSynthetic) {
  Corpus corpus;
  corpus.dataset = data::Dataset(datasets::FeretSchema());
  ASSERT_TRUE(
      corpus.Add(MakeTuple(0, 0), image::Image(4, 4, 3), 0.9).ok());
  data::Tuple synthetic = MakeTuple(0, 1);
  synthetic.synthetic = true;
  ASSERT_TRUE(
      corpus.Add(std::move(synthetic), image::Image(4, 4, 3), 0.5).ok());
  ASSERT_TRUE(corpus.AddAnnotationOnly(MakeTuple(1, 0)).ok());

  const auto realism = corpus.RealTupleRealism();
  ASSERT_EQ(realism.size(), 1u);
  EXPECT_DOUBLE_EQ(realism[0], 0.9);
}

TEST(CorpusTest, RealEmbeddingsSkipSyntheticAndMissing) {
  Corpus corpus;
  corpus.dataset = data::Dataset(datasets::FeretSchema());
  data::Tuple real = MakeTuple(0, 0);
  real.embedding = {1.0, 2.0};
  data::Tuple synthetic = MakeTuple(0, 1);
  synthetic.embedding = {3.0, 4.0};
  synthetic.synthetic = true;
  ASSERT_TRUE(corpus.AddAnnotationOnly(std::move(real)).ok());
  ASSERT_TRUE(corpus.AddAnnotationOnly(std::move(synthetic)).ok());
  ASSERT_TRUE(corpus.AddAnnotationOnly(MakeTuple(1, 1)).ok());
  const auto embeddings = corpus.RealEmbeddings();
  ASSERT_EQ(embeddings.size(), 1u);
  EXPECT_EQ(embeddings[0], (std::vector<double>{1.0, 2.0}));
}

TEST(CorpusTest, CopySharesBasePixelsAndOwnsItsAppends) {
  Corpus base;
  base.dataset = data::Dataset(datasets::FeretSchema());
  ASSERT_TRUE(base.Add(MakeTuple(0, 0), image::Image(4, 4, 3, 7), 0.9).ok());
  ASSERT_TRUE(base.Add(MakeTuple(1, 1), image::Image(4, 4, 3, 9), 0.8).ok());

  // A copy is an overlay: the same pixel buffers, not a second image set.
  Corpus overlay = base;
  ASSERT_EQ(overlay.num_images(), 2u);
  for (int64_t id = 0; id < 2; ++id) {
    EXPECT_EQ(overlay.image(id).pixels().data(), base.image(id).pixels().data())
        << id;
  }

  // Appending to the overlay leaves the base exactly as it was.
  data::Tuple synthetic = MakeTuple(0, 1);
  synthetic.synthetic = true;
  ASSERT_TRUE(overlay.Add(std::move(synthetic), image::Image(4, 4, 3, 42), 0.5)
                  .ok());
  EXPECT_EQ(overlay.num_images(), 3u);
  EXPECT_EQ(overlay.dataset.size(), 3u);
  EXPECT_EQ(overlay.image(2).at(0, 0, 0), 42);
  EXPECT_EQ(base.num_images(), 2u);
  EXPECT_EQ(base.dataset.size(), 2u);
  EXPECT_EQ(base.realism, (std::vector<double>{0.9, 0.8}));
  EXPECT_EQ(base.image(0), image::Image(4, 4, 3, 7));
  EXPECT_EQ(base.image(1), image::Image(4, 4, 3, 9));
  EXPECT_EQ(base.image(0).pixels().data(), overlay.image(0).pixels().data());
}

TEST(CorpusTest, EmbeddingsViewSkipsMissing) {
  Corpus corpus;
  corpus.dataset = data::Dataset(datasets::FeretSchema());
  data::Tuple with = MakeTuple(0, 0);
  with.embedding = {1.0, 2.0};
  ASSERT_TRUE(corpus.AddAnnotationOnly(std::move(with)).ok());
  ASSERT_TRUE(corpus.AddAnnotationOnly(MakeTuple(1, 1)).ok());
  const auto embeddings = corpus.Embeddings();
  ASSERT_EQ(embeddings.size(), 1u);
  EXPECT_EQ(embeddings[0], (std::vector<double>{1.0, 2.0}));
}

// ---------------------------------------------------------------------------
// LoadCorpus line endings: a corpus that passed through Windows tooling
// (CRLF line endings, possibly no trailing newline) is merely reformatted,
// not corrupt — it must load byte-for-byte identically. Actual corruption
// must still surface kIoError.
// ---------------------------------------------------------------------------

class CorpusLineEndingTest : public ::testing::Test {
 protected:
  /// Saves a small valid FERET-schema corpus (with images) into a fresh
  /// directory named after the running test, and returns the directory.
  std::string SaveSmallCorpus() {
    Corpus corpus;
    corpus.dataset = data::Dataset(datasets::FeretSchema());
    util::Rng rng(11);
    for (int i = 0; i < 4; ++i) {
      data::Tuple tuple;
      tuple.values = {i % 2, i % 5};
      tuple.embedding = {rng.NextDouble(), rng.NextDouble()};
      image::Image img(4, 4, 3, static_cast<uint8_t>(30 * i));
      EXPECT_TRUE(corpus.Add(std::move(tuple), std::move(img), 0.9).ok());
    }
    const std::string dir =
        ::testing::TempDir() + "/lineend_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    EXPECT_TRUE(SaveCorpus(corpus, dir).ok());
    return dir;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  static void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    EXPECT_TRUE(out.good()) << path;
    out << content;
  }

  /// Rewrites one CSV with \r\n line endings (LF already in place → CRLF).
  static void ConvertToCrlf(const std::string& path) {
    const std::string text = ReadFile(path);
    std::string crlf;
    crlf.reserve(text.size() + text.size() / 8);
    for (const char c : text) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    WriteFile(path, crlf);
  }
};

TEST_F(CorpusLineEndingTest, CrlfCorpusLoadsIdentically) {
  const std::string dir = SaveSmallCorpus();
  const auto baseline = LoadCorpus(dir);
  ASSERT_TRUE(baseline.ok());

  for (const char* file : {"/schema.csv", "/tuples.csv", "/realism.csv"}) {
    ConvertToCrlf(dir + file);
  }
  const auto loaded = LoadCorpus(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->dataset.size(), baseline->dataset.size());
  for (size_t i = 0; i < baseline->dataset.size(); ++i) {
    EXPECT_EQ(loaded->dataset.tuple(i).values,
              baseline->dataset.tuple(i).values);
    EXPECT_EQ(loaded->dataset.tuple(i).embedding,
              baseline->dataset.tuple(i).embedding);
  }
  EXPECT_EQ(loaded->realism, baseline->realism);
}

TEST_F(CorpusLineEndingTest, MissingTrailingNewlineLoads) {
  const std::string dir = SaveSmallCorpus();
  std::string tuples = ReadFile(dir + "/tuples.csv");
  ASSERT_FALSE(tuples.empty());
  ASSERT_EQ(tuples.back(), '\n');
  tuples.pop_back();
  WriteFile(dir + "/tuples.csv", tuples);

  const auto loaded = LoadCorpus(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dataset.size(), 4u);
}

TEST_F(CorpusLineEndingTest, CrlfDoesNotMaskRealCorruption) {
  // The tolerance is for line endings only: a CRLF file with a mangled
  // numeric field is corrupt and must still be rejected loudly.
  const std::string dir = SaveSmallCorpus();
  ConvertToCrlf(dir + "/tuples.csv");
  std::string tuples = ReadFile(dir + "/tuples.csv");
  const auto comma = tuples.find(',');
  ASSERT_NE(comma, std::string::npos);
  tuples.replace(0, comma, "abc");  // payload_id is not a number any more
  WriteFile(dir + "/tuples.csv", tuples);

  const auto loaded = LoadCorpus(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace chameleon::fm
