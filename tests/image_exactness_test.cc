// Byte-exactness pins for the image substrate. Every hash below is an
// FNV-1a digest of bytes the pipeline produces today: the FERET world's
// images and embeddings, RenderFace over a grid of sizes, artifact levels
// and blur sigmas, the three mask levels, guided FM generations together
// with the generator's rng state afterwards, and the report digests of
// three CLI-shaped FERET repairs. A hot-path rewrite of render, blur,
// noise, masking or embedding must leave all of them unchanged; a change
// that is meant to move them is a deliberate re-golden and updates this
// file with the diff explained.
//
// The second half checks the fast paths against naive oracles kept here:
// the disc-scatter dilation, the per-tap clamped blur, discarded
// NextGaussian draws for SkipGaussian, and a full render for RenderFace
// with a kept region.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/image/face_renderer.h"
#include "src/image/filter.h"
#include "src/image/mask_generator.h"
#include "src/util/rng.h"
#include "tools/chameleond/protocol.h"

namespace chameleon {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash = kFnvOffset) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t HashImage(const image::Image& img, uint64_t hash = kFnvOffset) {
  const int dims[3] = {img.width(), img.height(), img.channels()};
  hash = Fnv1a(dims, sizeof(dims), hash);
  return Fnv1a(img.pixels().data(), img.pixels().size(), hash);
}

uint64_t HashDoubles(const std::vector<double>& values,
                     uint64_t hash = kFnvOffset) {
  return Fnv1a(values.data(), values.size() * sizeof(double), hash);
}

/// The next four standard normals of `rng`: pins both its xoshiro state
/// and its cached Box-Muller spare.
std::vector<double> NextDraws(util::Rng* rng) {
  std::vector<double> draws;
  for (int i = 0; i < 4; ++i) draws.push_back(rng->NextGaussian());
  return draws;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

class FeretWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    embedder_ = new embedding::SimulatedEmbedder();
    auto corpus = datasets::MakeFeret(embedder_, datasets::FeretOptions());
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    world_ = new fm::Corpus(*std::move(corpus));
  }
  static void TearDownTestSuite() {
    delete world_;
    delete embedder_;
    world_ = nullptr;
    embedder_ = nullptr;
  }

  static fm::SimulatedFoundationModel MakeModel() {
    return fm::SimulatedFoundationModel(
        world_->dataset.schema(), datasets::FeretFaceStyleFn(),
        datasets::FeretScene(), fm::SimulatedFoundationModel::Options());
  }

  static inline const embedding::SimulatedEmbedder* embedder_ = nullptr;
  static inline fm::Corpus* world_ = nullptr;
};

TEST_F(FeretWorld, ImagesAndEmbeddingsArePinned) {
  uint64_t images = kFnvOffset;
  for (size_t i = 0; i < world_->num_images(); ++i) {
    images = HashImage(world_->image(static_cast<int64_t>(i)), images);
  }
  uint64_t embeddings = kFnvOffset;
  for (const auto& e : world_->Embeddings()) {
    embeddings = HashDoubles(e, embeddings);
  }
  EXPECT_EQ(world_->num_images(), 756u);
  EXPECT_EQ(Hex(images), "bb86e9f002f9c581");
  EXPECT_EQ(Hex(embeddings), "5c9413263d808cac");
}

TEST(RenderExactness, GridIsPinned) {
  struct Case {
    int size;
    double artifact_level;
    double blur_sigma;
    const char* hash;
  };
  const Case kCases[] = {
      {24, 0.0, 0.0, "170f9ca19f919bcb"},
      {24, 0.0, 0.5, "73ddbe76a3836613"},
      {24, 0.0, 0.6, "860c809111da98b2"},
      {24, 0.0, 2.0, "65a7aa9461a78b4c"},
      {24, 0.4, 0.0, "b6b1bb083df34106"},
      {24, 0.4, 0.5, "7607e1c870fb17ad"},
      {24, 0.4, 0.6, "d5a42c3312971daf"},
      {24, 0.4, 2.0, "fc4ff8b4db90423c"},
      {24, 0.9, 0.0, "e398fab50be4f1f5"},
      {24, 0.9, 0.5, "50fa347f4eb7f075"},
      {24, 0.9, 0.6, "de29d367d69da8e3"},
      {24, 0.9, 2.0, "8bf0275c83989084"},
      {32, 0.0, 0.0, "ea442ad03578f62a"},
      {32, 0.0, 0.5, "c4ef15c9153a126f"},
      {32, 0.0, 0.6, "7843851f7784afb1"},
      {32, 0.0, 2.0, "ce5e8eb23d472cf0"},
      {32, 0.4, 0.0, "3aa2035b2eb5bb23"},
      {32, 0.4, 0.5, "8fdfdb04edc444c5"},
      {32, 0.4, 0.6, "53092e55b178437b"},
      {32, 0.4, 2.0, "345499c5c4bb660f"},
      {32, 0.9, 0.0, "5aeb6a37300ae683"},
      {32, 0.9, 0.5, "5ac40faa377de86c"},
      {32, 0.9, 0.6, "a19cfc415e00602c"},
      {32, 0.9, 2.0, "d55759f4fd3f0d84"},
      {64, 0.0, 0.0, "9d19df3390b184d9"},
      {64, 0.0, 0.5, "be59bd97869df11c"},
      {64, 0.0, 0.6, "abcef6cd35f10959"},
      {64, 0.0, 2.0, "72c01343bde53792"},
      {64, 0.4, 0.0, "f4401c903675dbf8"},
      {64, 0.4, 0.5, "a19ad1c546413bd7"},
      {64, 0.4, 0.6, "8c246eb47876549c"},
      {64, 0.4, 2.0, "fb835eb2e79c8ccd"},
      {64, 0.9, 0.0, "478e535a516e536a"},
      {64, 0.9, 0.5, "7e10f193329a2e4e"},
      {64, 0.9, 0.6, "24adda8091944720"},
      {64, 0.9, 2.0, "64bd982bdda476c5"},
  };
  uint64_t seed = 100;
  for (const Case& c : kCases) {
    util::Rng rng(++seed);
    const image::FaceStyle style =
        image::MakeFaceStyle(static_cast<int>(seed % 5), 5, seed % 2 == 0,
                             0.3 + 0.05 * static_cast<double>(seed % 7), &rng);
    image::SceneStyle scene = datasets::FeretScene();
    scene.blur_sigma = c.blur_sigma;
    image::RenderOptions options;
    options.size = c.size;
    options.artifact_level = c.artifact_level;
    const image::Image img = image::RenderFace(style, scene, options, &rng);
    const uint64_t hash = HashDoubles(NextDraws(&rng), HashImage(img));
    EXPECT_EQ(Hex(hash), c.hash)
        << "size " << c.size << " artifact " << c.artifact_level << " sigma "
        << c.blur_sigma;
  }
}

TEST_F(FeretWorld, MasksArePinned) {
  struct Case {
    image::MaskLevel level;
    const char* hash;
  };
  const Case kCases[] = {{image::MaskLevel::kAccurate, "140b26d9c223ab85"},
                         {image::MaskLevel::kModerate, "c3140069cd420b45"},
                         {image::MaskLevel::kImprecise, "47d58b3ea6b227c4"}};
  for (const Case& c : kCases) {
    uint64_t hash = kFnvOffset;
    for (size_t i = 0; i < world_->num_images(); i += 9) {
      hash = HashImage(
          image::GenerateMask(world_->image(static_cast<int64_t>(i)), c.level),
          hash);
    }
    // A 24 px guide exercises the smaller dilation radius.
    util::Rng rng(7);
    const image::FaceStyle style = image::MakeFaceStyle(2, 5, true, 0.5, &rng);
    image::RenderOptions small;
    small.size = 24;
    hash = HashImage(
        image::GenerateMask(image::RenderFace(style, datasets::FeretScene(),
                                              small, &rng),
                            c.level),
        hash);
    EXPECT_EQ(Hex(hash), c.hash) << image::MaskLevelName(c.level);
  }
}

TEST_F(FeretWorld, GuidedGenerationsArePinned) {
  fm::SimulatedFoundationModel model = MakeModel();
  const std::vector<int> target = {1, datasets::kFeretBlack};

  // 64 px guide on a 64 px render: the composite keeps the masked region.
  uint64_t full = kFnvOffset;
  for (size_t i = 0; i < world_->num_images(); i += 63) {
    const data::Tuple& guide = world_->dataset.tuple(i);
    const image::Image& guide_image = world_->image(guide.payload_id);
    const image::Image mask =
        image::GenerateMask(guide_image, image::MaskLevel::kModerate);
    fm::GenerationRequest request;
    request.target_values = target;
    request.guide = &guide_image;
    request.guide_values = &guide.values;
    request.mask = &mask;
    util::Rng rng(1000 + i);
    auto result = model.Generate(request, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    full = HashImage(result->image, full);
    full = HashDoubles({result->latent_realism}, full);
    full = HashDoubles(NextDraws(&rng), full);
  }
  EXPECT_EQ(Hex(full), "b8615309278f86d5");

  // 24 px guide on the 64 px render: the mask does not match the render
  // size, so the model renders in full.
  util::Rng guide_rng(11);
  const image::FaceStyle style =
      image::MakeFaceStyle(0, 5, false, 0.2, &guide_rng);
  image::RenderOptions small;
  small.size = 24;
  const image::Image guide_image =
      image::RenderFace(style, datasets::FeretScene(), small, &guide_rng);
  const std::vector<int> guide_values = {0, datasets::kFeretWhite};
  uint64_t mismatched = kFnvOffset;
  for (image::MaskLevel level :
       {image::MaskLevel::kAccurate, image::MaskLevel::kModerate,
        image::MaskLevel::kImprecise}) {
    const image::Image mask = image::GenerateMask(guide_image, level);
    fm::GenerationRequest request;
    request.target_values = target;
    request.guide = &guide_image;
    request.guide_values = &guide_values;
    request.mask = &mask;
    util::Rng rng(77);
    auto result = model.Generate(request, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    mismatched = HashImage(result->image, mismatched);
    mismatched = HashDoubles(NextDraws(&rng), mismatched);
  }
  EXPECT_EQ(Hex(mismatched), "5b38ebe4310d52cf");
}

/// The options `chameleon_cli repair --dataset=feret --tau=100` runs with.
core::ChameleonOptions CliOptions(uint64_t seed) {
  core::ChameleonOptions options;
  options.tau = 100;
  options.seed = seed;
  options.rejection.quality_alpha = 0.1;
  options.rejection.svm.nu = 0.3;
  options.guide_strategy = core::GuideStrategy::kLinUcb;
  options.mask_level = image::MaskLevel::kModerate;
  return options;
}

TEST_F(FeretWorld, RepairDigestsArePinned) {
  const char* kDigests[] = {"98d85c5551ce8b9b", "4f05f21c4fd545a3",
                            "11ff806afa195e00"};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    fm::Corpus corpus = *world_;
    fm::SimulatedFoundationModel model = MakeModel();
    const fm::EvaluatorPool evaluators(2024);
    core::Chameleon system(&model, embedder_, &evaluators, CliOptions(seed));
    auto report = system.RepairMinLevelMups(&corpus);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(daemon::ReportDigest(*report), kDigests[seed - 1])
        << "seed " << seed;
  }
}


// --- Differential tests against naive oracles ------------------------------

/// The original DilateDisc: scatter the disc over every set pixel.
image::Image ScatterDilateDisc(const image::Image& mask, int radius) {
  if (radius <= 0) return mask;
  const int w = mask.width();
  const int h = mask.height();
  std::vector<std::pair<int, int>> offsets;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy <= radius * radius) offsets.emplace_back(dx, dy);
    }
  }
  image::Image out(w, h, 1, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (mask.at(x, y, 0) == 0) continue;
      for (const auto& [dx, dy] : offsets) {
        if (out.InBounds(x + dx, y + dy)) out.at(x + dx, y + dy, 0) = 255;
      }
    }
  }
  return out;
}

/// The original GaussianBlur: every tap of both passes clamped.
image::Image ClampedGaussianBlur(const image::Image& input, double sigma) {
  if (sigma <= 0.0 || input.empty()) return input;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  std::vector<double> kernel(2 * radius + 1);
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    kernel[i + radius] = std::exp(-(i * i) / (2.0 * sigma * sigma));
    sum += kernel[i + radius];
  }
  for (double& k : kernel) k /= sum;
  const int w = input.width();
  const int h = input.height();
  const int ch = input.channels();
  std::vector<double> temp(static_cast<size_t>(w) * h * ch, 0.0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < ch; ++c) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          const int sx = std::clamp(x + i, 0, w - 1);
          acc += kernel[i + radius] * input.at(sx, y, c);
        }
        temp[(static_cast<size_t>(y) * w + x) * ch + c] = acc;
      }
    }
  }
  image::Image out(w, h, ch);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < ch; ++c) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          const int sy = std::clamp(y + i, 0, h - 1);
          acc += kernel[i + radius] *
                 temp[(static_cast<size_t>(sy) * w + x) * ch + c];
        }
        out.at(x, y, c) = static_cast<uint8_t>(std::clamp(acc, 0.0, 255.0));
      }
    }
  }
  return out;
}

/// A w x h image whose values are non-zero with probability `density`
/// (any non-zero byte, not just 255).
image::Image RandomImage(int w, int h, int channels, double density,
                         util::Rng* rng) {
  image::Image img(w, h, channels, 0);
  for (uint8_t& p : img.mutable_pixels()) {
    if (rng->NextBernoulli(density)) {
      p = static_cast<uint8_t>(rng->NextInt(1, 255));
    }
  }
  return img;
}

TEST(DilateDiscDifferential, MatchesScatterOracle) {
  util::Rng rng(5);
  const std::pair<int, int> kSizes[] = {{64, 64}, {17, 9}, {9, 17},
                                        {1, 30}, {30, 1}, {5, 5}};
  for (const auto& [w, h] : kSizes) {
    std::vector<image::Image> masks = {image::Image(w, h, 1, 0),
                                       image::Image(w, h, 1, 255)};
    for (double density : {0.01, 0.1, 0.5}) {
      masks.push_back(RandomImage(w, h, 1, density, &rng));
    }
    for (const auto& [x, y] :
         {std::pair{0, 0}, std::pair{w - 1, h - 1}, std::pair{w / 2, h / 2}}) {
      image::Image single(w, h, 1, 0);
      single.at(x, y, 0) = 9;
      masks.push_back(single);
    }
    for (size_t m = 0; m < masks.size(); ++m) {
      for (int radius = 0; radius <= 12; ++radius) {
        EXPECT_EQ(image::DilateDisc(masks[m], radius),
                  ScatterDilateDisc(masks[m], radius))
            << w << "x" << h << " mask " << m << " radius " << radius;
      }
    }
  }
}

TEST(DilateBoxDifferential, MatchesSquareScatter) {
  util::Rng rng(6);
  for (const auto& [w, h] : {std::pair{32, 32}, std::pair{7, 3}}) {
    const image::Image mask = RandomImage(w, h, 1, 0.05, &rng);
    for (int radius = 1; radius <= 4; ++radius) {
      image::Image expected(w, h, 1, 0);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          if (mask.at(x, y, 0) == 0) continue;
          for (int dy = -radius; dy <= radius; ++dy) {
            for (int dx = -radius; dx <= radius; ++dx) {
              if (expected.InBounds(x + dx, y + dy)) {
                expected.at(x + dx, y + dy, 0) = 255;
              }
            }
          }
        }
      }
      EXPECT_EQ(image::DilateBox(mask, radius), expected)
          << w << "x" << h << " radius " << radius;
    }
  }
}

TEST(GaussianBlurDifferential, MatchesClampedReference) {
  util::Rng rng(8);
  // 5 px and 3 px sides are narrower than the 2r+1 taps of sigma 1 and 2,
  // so every column (or row) there is a border one.
  const std::pair<int, int> kSizes[] = {{64, 64}, {31, 7},  {5, 5},
                                        {3, 20},  {20, 3},  {1, 1}};
  for (int channels : {1, 3}) {
    for (const auto& [w, h] : kSizes) {
      const image::Image img = RandomImage(w, h, channels, 1.0, &rng);
      for (double sigma : {0.0, 0.3, 0.5, 0.6, 1.0, 2.0}) {
        EXPECT_EQ(image::GaussianBlur(img, sigma),
                  ClampedGaussianBlur(img, sigma))
            << channels << " ch " << w << "x" << h << " sigma " << sigma;
      }
    }
  }
  EXPECT_EQ(image::GaussianBlurRadius(0.0), 0);
  EXPECT_EQ(image::GaussianBlurRadius(0.2), 1);
  EXPECT_EQ(image::GaussianBlurRadius(0.6), 2);
  EXPECT_EQ(image::GaussianBlurRadius(2.0), 6);
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(SkipGaussianDifferential, MatchesDiscardedNextGaussian) {
  // `reference` discards NextGaussian draws where `skipping` calls
  // SkipGaussian; every other call must then agree bit for bit.
  util::Rng script(21);
  util::Rng reference(99);
  util::Rng skipping(99);
  for (int step = 0; step < 200000; ++step) {
    const uint64_t op = script.NextBounded(16);
    if (op < 7) {
      reference.NextGaussian();
      skipping.SkipGaussian();
    } else if (op < 14) {
      ASSERT_EQ(Bits(reference.NextGaussian()), Bits(skipping.NextGaussian()))
          << "step " << step;
    } else if (op == 14) {
      ASSERT_EQ(reference.NextU64(), skipping.NextU64()) << "step " << step;
    } else {
      ASSERT_EQ(Bits(reference.NextDouble()), Bits(skipping.NextDouble()))
          << "step " << step;
    }
  }
}

TEST(SkipGaussianDifferential, PendingSpareSurvivesCopyAndFork) {
  util::Rng reference(3);
  util::Rng skipping(3);
  reference.NextGaussian();
  skipping.SkipGaussian();  // Leaves an unevaluated spare pending.

  util::Rng reference_copy = reference;
  util::Rng skipping_copy = skipping;
  util::Rng reference_child = reference.Fork();
  util::Rng skipping_child = skipping.Fork();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Bits(reference.NextGaussian()), Bits(skipping.NextGaussian()));
    EXPECT_EQ(Bits(reference_copy.NextGaussian()),
              Bits(skipping_copy.NextGaussian()));
    EXPECT_EQ(Bits(reference_child.NextGaussian()),
              Bits(skipping_child.NextGaussian()));
  }

  // Skipping the pending spare itself drops it, as a discarded draw would.
  reference.NextGaussian();
  skipping.SkipGaussian();
  reference.NextGaussian();
  skipping.SkipGaussian();
  EXPECT_EQ(Bits(reference.NextGaussian()), Bits(skipping.NextGaussian()));
}

/// Renders the same face twice from the same rng state, once in full and
/// once keeping `keep`, and checks the kept pixels and the end states.
void ExpectKeepMatchesFullRender(const image::Image& keep,
                                 double artifact_level, double blur_sigma,
                                 uint64_t seed) {
  util::Rng style_rng(seed);
  const image::FaceStyle style =
      image::MakeFaceStyle(3, 5, seed % 2 == 0, 0.6, &style_rng);
  image::SceneStyle scene = datasets::FeretScene();
  scene.blur_sigma = blur_sigma;
  image::RenderOptions options;
  options.size = 64;
  options.artifact_level = artifact_level;

  util::Rng full_rng(seed);
  const image::Image full = image::RenderFace(style, scene, options, &full_rng);
  options.keep = &keep;
  util::Rng kept_rng(seed);
  const image::Image kept = image::RenderFace(style, scene, options, &kept_rng);

  const bool geometry_matches = keep.width() == 64 && keep.height() == 64;
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (geometry_matches && keep.at(x, y, 0) == 0) continue;
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(kept.at(x, y, c), full.at(x, y, c))
            << "(" << x << ", " << y << ", " << c << ") artifact "
            << artifact_level << " sigma " << blur_sigma;
      }
    }
  }
  EXPECT_EQ(NextDraws(&kept_rng), NextDraws(&full_rng));
}

TEST(RenderKeepDifferential, KeptPixelsAndRngEndStateMatchFullRender) {
  util::Rng rng(13);
  util::Rng face_rng(4);
  image::RenderOptions guide_options;
  const image::Image guide = image::RenderFace(
      image::MakeFaceStyle(1, 5, true, 0.3, &face_rng), datasets::FeretScene(),
      guide_options, &face_rng);
  const std::vector<image::Image> keeps = {
      image::Image(64, 64, 1, 0),
      image::Image(64, 64, 1, 255),
      RandomImage(64, 64, 1, 0.3, &rng),
      RandomImage(64, 64, 1, 0.02, &rng),
      image::GenerateMask(guide, image::MaskLevel::kModerate),
      image::GenerateMask(guide, image::MaskLevel::kAccurate),
  };
  uint64_t seed = 40;
  for (const image::Image& keep : keeps) {
    for (double artifact_level : {0.0, 0.35, 0.9}) {
      for (double blur_sigma : {0.0, 0.6, 2.0}) {
        ExpectKeepMatchesFullRender(keep, artifact_level, blur_sigma, ++seed);
      }
    }
  }
}

TEST(RenderKeepDifferential, MismatchedKeepRendersInFull) {
  // A 24 px region on a 64 px render is ignored: every pixel matches the
  // full render, and nothing reads past the small region.
  util::Rng rng(17);
  const image::Image small = RandomImage(24, 24, 1, 0.5, &rng);
  const image::Image wide = RandomImage(64, 24, 1, 0.5, &rng);
  for (double artifact_level : {0.0, 0.9}) {
    ExpectKeepMatchesFullRender(small, artifact_level, 0.6, 3);
    ExpectKeepMatchesFullRender(wide, artifact_level, 0.6, 4);
  }
}

TEST_F(FeretWorld, KnownForegroundFractionMatchesExtraction) {
  fm::SimulatedFoundationModel model = MakeModel();
  const data::Tuple& guide = world_->dataset.tuple(100);
  const image::Image& guide_image = world_->image(guide.payload_id);
  const image::Image foreground = image::ExtractForeground(guide_image);
  const image::Image mask =
      image::MaskFromForeground(foreground, image::MaskLevel::kModerate);
  EXPECT_EQ(mask, image::GenerateMask(guide_image, image::MaskLevel::kModerate));

  fm::GenerationRequest request;
  request.target_values = {0, datasets::kFeretAsian};
  request.guide = &guide_image;
  request.guide_values = &guide.values;
  request.mask = &mask;
  util::Rng unknown_rng(5);
  auto unknown = model.Generate(request, &unknown_rng);
  request.guide_foreground_fraction = foreground.NonZeroFraction();
  util::Rng known_rng(5);
  auto known = model.Generate(request, &known_rng);
  ASSERT_TRUE(unknown.ok() && known.ok());
  EXPECT_EQ(known->image, unknown->image);
  EXPECT_EQ(Bits(known->latent_realism), Bits(unknown->latent_realism));
  EXPECT_EQ(NextDraws(&known_rng), NextDraws(&unknown_rng));
}

}  // namespace
}  // namespace chameleon
