#include <cstdio>
#include <filesystem>
#include <tuple>

#include "gtest/gtest.h"
#include "src/image/draw.h"
#include "src/image/face_renderer.h"
#include "src/image/filter.h"
#include "src/image/foreground.h"
#include "src/image/image.h"
#include "src/image/mask_generator.h"
#include "src/image/pnm_io.h"
#include "src/util/rng.h"

namespace chameleon::image {
namespace {

Image MakeTestFace(int size = 64, uint64_t seed = 3) {
  util::Rng rng(seed);
  const FaceStyle style = MakeFaceStyle(1, 5, false, 0.4, &rng);
  SceneStyle scene;
  RenderOptions options;
  options.size = size;
  return RenderFace(style, scene, options, &rng);
}

TEST(ImageTest, ConstructionAndAccess) {
  Image img(4, 3, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.at(2, 1, 2), 7);
  EXPECT_TRUE(img.InBounds(3, 2));
  EXPECT_FALSE(img.InBounds(4, 0));
  EXPECT_FALSE(img.InBounds(0, -1));
  EXPECT_TRUE(Image().empty());
}

TEST(ImageTest, SetPixelClipsOutOfBounds) {
  Image img(2, 2, 3);
  img.SetPixel(5, 5, 255, 0, 0);  // silently ignored
  img.SetPixel(1, 1, 10, 20, 30);
  EXPECT_EQ(img.at(1, 1, 0), 10);
  EXPECT_EQ(img.at(1, 1, 2), 30);
}

TEST(ImageTest, GrayscaleUsesLuminance) {
  Image img(1, 1, 3);
  img.SetPixel(0, 0, 255, 0, 0);
  const Image gray = img.ToGrayscale();
  EXPECT_EQ(gray.channels(), 1);
  EXPECT_NEAR(gray.at(0, 0, 0), 76, 1);  // 0.299 * 255
}

TEST(ImageTest, ResizedPreservesContentRegions) {
  Image img(8, 8, 1, 0);
  FillRect(&img, 0, 0, 4, 8, Color{255, 255, 255});
  const Image half = img.Resized(4, 4);
  EXPECT_EQ(half.width(), 4);
  EXPECT_EQ(half.at(0, 0, 0), 255);
  EXPECT_EQ(half.at(3, 0, 0), 0);
}

TEST(ImageTest, NonZeroFraction) {
  Image mask(4, 4, 1, 0);
  mask.at(0, 0, 0) = 255;
  mask.at(1, 1, 0) = 255;
  EXPECT_DOUBLE_EQ(mask.NonZeroFraction(), 2.0 / 16.0);
}

TEST(ImageTest, CompositeWithMask) {
  Image bg(2, 2, 3, 0);
  Image fg(2, 2, 3, 200);
  Image mask(2, 2, 1, 0);
  mask.at(1, 0, 0) = 255;
  auto out = CompositeWithMask(bg, fg, mask);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->at(1, 0, 0), 200);
  EXPECT_EQ(out->at(0, 0, 0), 0);
}

TEST(ImageTest, CompositeCropsLargerForegroundIntoSmallerBackground) {
  // A 4 px render composited into a 2 px guide keeps the render's
  // top-left 2x2 crop.
  Image bg(2, 2, 3, 0);
  Image fg(4, 4, 3, 0);
  fg.at(1, 1, 2) = 77;
  fg.at(3, 3, 2) = 99;
  Image mask(2, 2, 1, 255);
  auto out = CompositeWithMask(bg, fg, mask);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->width(), 2);
  EXPECT_EQ(out->at(1, 1, 2), 77);
}

TEST(ImageTest, CompositeRejectsBackgroundLargerThanForegroundOrMask) {
  // Each case would read past a buffer (an ASan heap-buffer-overflow
  // before the check existed): 96 px guide on a 64 px render, a mask
  // smaller than the guide, an RGB guide over a grayscale render.
  const Image guide(96, 96, 3, 10);
  const Image render(64, 64, 3, 200);
  const Image guide_mask(96, 96, 1, 255);
  const Image render_mask(64, 64, 1, 255);
  for (const auto& [bg, fg, mask] :
       {std::make_tuple(&guide, &render, &guide_mask),
        std::make_tuple(&guide, &guide, &render_mask)}) {
    auto out = CompositeWithMask(*bg, *fg, *mask);
    EXPECT_EQ(out.status().code(), util::StatusCode::kInvalidArgument);
  }
  const Image gray(64, 64, 1, 200);
  EXPECT_EQ(CompositeWithMask(render, gray, render_mask).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(DrawTest, FillRectClipsToBounds) {
  Image img(4, 4, 1, 0);
  FillRect(&img, -2, -2, 2, 2, Color{9, 9, 9});
  EXPECT_EQ(img.at(0, 0, 0), 9);
  EXPECT_EQ(img.at(1, 1, 0), 9);
  EXPECT_EQ(img.at(2, 2, 0), 0);
}

TEST(DrawTest, FillCircleCoversCenterNotCorner) {
  Image img(9, 9, 1, 0);
  FillCircle(&img, 4, 4, 3, Color{255, 255, 255});
  EXPECT_EQ(img.at(4, 4, 0), 255);
  EXPECT_EQ(img.at(0, 0, 0), 0);
  EXPECT_EQ(img.at(4, 1, 0), 255);  // on the radius
}

TEST(DrawTest, GradientIsMonotone) {
  Image img(2, 16, 1);
  FillVerticalGradient(&img, Color{0, 0, 0}, Color{255, 255, 255});
  for (int y = 1; y < 16; ++y) {
    EXPECT_GE(img.at(0, y, 0), img.at(0, y - 1, 0));
  }
}

TEST(DrawTest, LineTouchesEndpoints) {
  Image img(8, 8, 1, 0);
  DrawLine(&img, 0, 0, 7, 7, Color{255, 255, 255});
  EXPECT_EQ(img.at(0, 0, 0), 255);
  EXPECT_EQ(img.at(7, 7, 0), 255);
  EXPECT_EQ(img.at(3, 3, 0), 255);
}

TEST(FilterTest, GaussianBlurPreservesFlatRegions) {
  Image img(16, 16, 1, 100);
  const Image blurred = GaussianBlur(img, 1.5);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_NEAR(blurred.at(x, y, 0), 100, 1);
    }
  }
}

TEST(FilterTest, GaussianBlurSmoothsEdges) {
  Image img(16, 16, 1, 0);
  FillRect(&img, 8, 0, 16, 16, Color{255, 255, 255});
  const Image blurred = GaussianBlur(img, 2.0);
  const int edge = blurred.at(8, 8, 0);
  EXPECT_GT(edge, 30);
  EXPECT_LT(edge, 225);
}

TEST(FilterTest, NoiseChangesPixels) {
  Image img(16, 16, 1, 128);
  util::Rng rng(5);
  AddGaussianNoise(&img, 20.0, &rng);
  int changed = 0;
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) changed += img.at(x, y, 0) != 128;
  }
  EXPECT_GT(changed, 200);
}

TEST(FilterTest, DilateDiscGrowsMask) {
  Image mask(11, 11, 1, 0);
  mask.at(5, 5, 0) = 255;
  const Image dilated = DilateDisc(mask, 3);
  EXPECT_EQ(dilated.at(5, 5, 0), 255);
  EXPECT_EQ(dilated.at(5, 2, 0), 255);
  EXPECT_EQ(dilated.at(5, 1, 0), 0);
  EXPECT_GT(dilated.NonZeroFraction(), mask.NonZeroFraction());
}

TEST(PnmIoTest, RoundTripsRgbAndGray) {
  const std::string dir = ::testing::TempDir();
  const Image face = MakeTestFace(32);
  const std::string rgb_path = dir + "/face.ppm";
  ASSERT_TRUE(WritePnm(face, rgb_path).ok());
  auto rgb_read = ReadPnm(rgb_path);
  ASSERT_TRUE(rgb_read.ok());
  EXPECT_EQ(*rgb_read, face);

  const Image gray = face.ToGrayscale();
  const std::string gray_path = dir + "/face.pgm";
  ASSERT_TRUE(WritePnm(gray, gray_path).ok());
  auto gray_read = ReadPnm(gray_path);
  ASSERT_TRUE(gray_read.ok());
  EXPECT_EQ(*gray_read, gray);
}

TEST(PnmIoTest, ErrorsOnBadInputs) {
  EXPECT_FALSE(WritePnm(Image(), "/tmp/empty.ppm").ok());
  EXPECT_FALSE(ReadPnm("/nonexistent/path.ppm").ok());
  EXPECT_FALSE(WritePnm(MakeTestFace(8), "/nonexistent/dir/x.ppm").ok());
}

TEST(FaceRendererTest, ProducesPlausiblePortrait) {
  const Image face = MakeTestFace(64);
  EXPECT_EQ(face.width(), 64);
  EXPECT_EQ(face.channels(), 3);
  // The center (face) should differ from the top corner (background).
  double center = face.Luminance(32, 34);
  double corner = face.Luminance(1, 1);
  EXPECT_GT(std::abs(center - corner), 10.0);
}

TEST(FaceRendererTest, SkinGroupsDifferInTone) {
  util::Rng rng(5);
  const FaceStyle light = MakeFaceStyle(0, 5, false, 0.3, &rng);
  const FaceStyle dark = MakeFaceStyle(4, 5, false, 0.3, &rng);
  const double light_lum =
      0.299 * light.skin.r + 0.587 * light.skin.g + 0.114 * light.skin.b;
  const double dark_lum =
      0.299 * dark.skin.r + 0.587 * dark.skin.g + 0.114 * dark.skin.b;
  EXPECT_GT(light_lum, dark_lum);
}

TEST(FaceRendererTest, FeminineStyleHasMoreHairNoBeard) {
  util::Rng rng(6);
  const FaceStyle feminine = MakeFaceStyle(0, 5, true, 0.3, &rng);
  const FaceStyle masculine = MakeFaceStyle(0, 5, false, 0.3, &rng);
  EXPECT_GT(feminine.hair_volume, masculine.hair_volume);
  EXPECT_EQ(feminine.beard, 0.0);
}

TEST(FaceRendererTest, ArtifactsReduceSimilarityToCleanRender) {
  util::Rng rng_a(9);
  util::Rng rng_b(9);
  const FaceStyle style = MakeFaceStyle(2, 5, false, 0.5, &rng_a);
  (void)MakeFaceStyle(2, 5, false, 0.5, &rng_b);  // keep streams aligned
  SceneStyle scene;
  RenderOptions clean;
  clean.size = 64;
  RenderOptions noisy = clean;
  noisy.artifact_level = 0.8;
  const Image a = RenderFace(style, scene, clean, &rng_a);
  const Image b = RenderFace(style, scene, noisy, &rng_b);
  EXPECT_GT(MeanAbsoluteDifference(a, b), 4.0);
}

TEST(FaceRendererTest, JitterSceneShiftsColors) {
  util::Rng rng(10);
  SceneStyle base;
  const SceneStyle jittered = JitterScene(base, 25.0, &rng);
  const int diff = std::abs(jittered.background_top.r -
                            base.background_top.r) +
                   std::abs(jittered.background_top.g -
                            base.background_top.g) +
                   std::abs(jittered.background_top.b -
                            base.background_top.b);
  EXPECT_GT(diff, 0);
  // Zero jitter is identity.
  const SceneStyle same = JitterScene(base, 0.0, &rng);
  EXPECT_EQ(same.background_top.r, base.background_top.r);
}

TEST(ForegroundTest, ExtractsCentralSubject) {
  const Image face = MakeTestFace(64);
  const Image mask = ExtractForeground(face);
  EXPECT_EQ(mask.channels(), 1);
  // Subject present but not the whole frame.
  const double fraction = mask.NonZeroFraction();
  EXPECT_GT(fraction, 0.10);
  EXPECT_LT(fraction, 0.95);
  // The face center is foreground; the top corners are background.
  EXPECT_NE(mask.at(32, 34, 0), 0);
  EXPECT_EQ(mask.at(1, 1, 0), 0);
  EXPECT_EQ(mask.at(62, 1, 0), 0);
}

TEST(ForegroundTest, BoundingBox) {
  Image mask(8, 8, 1, 0);
  int x0;
  int y0;
  int x1;
  int y1;
  EXPECT_FALSE(MaskBoundingBox(mask, &x0, &y0, &x1, &y1));
  mask.at(2, 3, 0) = 255;
  mask.at(5, 6, 0) = 255;
  ASSERT_TRUE(MaskBoundingBox(mask, &x0, &y0, &x1, &y1));
  EXPECT_EQ(x0, 2);
  EXPECT_EQ(y0, 3);
  EXPECT_EQ(x1, 5);
  EXPECT_EQ(y1, 6);
}

TEST(MaskGeneratorTest, LevelsAreOrderedBySize) {
  const Image face = MakeTestFace(64);
  const Image accurate = GenerateMask(face, MaskLevel::kAccurate);
  const Image moderate = GenerateMask(face, MaskLevel::kModerate);
  const Image imprecise = GenerateMask(face, MaskLevel::kImprecise);
  // Moderate dilates the accurate outline; the bounding box covers the
  // accurate mask.
  EXPECT_GT(moderate.NonZeroFraction(), accurate.NonZeroFraction());
  EXPECT_GE(imprecise.NonZeroFraction(), accurate.NonZeroFraction());
  // Accurate mask pixels are inside both of the relaxed masks.
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (accurate.at(x, y, 0) != 0) {
        EXPECT_NE(moderate.at(x, y, 0), 0);
        EXPECT_NE(imprecise.at(x, y, 0), 0);
      }
    }
  }
}

TEST(MaskGeneratorTest, ImpreciseIsARectangle) {
  const Image face = MakeTestFace(64);
  const Image box = GenerateMask(face, MaskLevel::kImprecise);
  int x0;
  int y0;
  int x1;
  int y1;
  ASSERT_TRUE(MaskBoundingBox(box, &x0, &y0, &x1, &y1));
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      EXPECT_NE(box.at(x, y, 0), 0);
    }
  }
}

TEST(MaskGeneratorTest, NamesAreStable) {
  EXPECT_STREQ(MaskLevelName(MaskLevel::kAccurate), "Accurate");
  EXPECT_STREQ(MaskLevelName(MaskLevel::kModerate), "Moderate");
  EXPECT_STREQ(MaskLevelName(MaskLevel::kImprecise), "Imprecise");
}

}  // namespace
}  // namespace chameleon::image
