// Micro-benchmarks for the image substrate: face rendering (full and
// guided), blur, dilation, foreground extraction, mask generation at each
// delineation level, and embedding.

#include <benchmark/benchmark.h>

#include "src/embedding/simulated_embedder.h"
#include "src/image/face_renderer.h"
#include "src/image/filter.h"
#include "src/image/mask_generator.h"
#include "src/util/rng.h"

namespace {

using namespace chameleon;

image::Image MakeFace(int size, uint64_t seed) {
  util::Rng rng(seed);
  const image::FaceStyle style = image::MakeFaceStyle(1, 5, true, 0.3, &rng);
  image::SceneStyle scene;
  image::RenderOptions options;
  options.size = size;
  return image::RenderFace(style, scene, options, &rng);
}

void BM_RenderFace(benchmark::State& state) {
  util::Rng rng(1);
  const image::FaceStyle style = image::MakeFaceStyle(0, 5, false, 0.5, &rng);
  image::SceneStyle scene;
  image::RenderOptions options;
  options.size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(image::RenderFace(style, scene, options, &rng));
  }
}
BENCHMARK(BM_RenderFace)->Range(32, 256);

// A guided FM query's render: 64 px, keeping only the Moderate mask of a
// guide, at a typical guided artifact level.
void BM_RenderFaceGuided(benchmark::State& state) {
  const image::Image mask =
      image::GenerateMask(MakeFace(64, 3), image::MaskLevel::kModerate);
  util::Rng rng(1);
  const image::FaceStyle style = image::MakeFaceStyle(0, 5, false, 0.5, &rng);
  image::SceneStyle scene;
  image::RenderOptions options;
  options.size = 64;
  options.artifact_level = 0.15;
  options.keep = &mask;
  for (auto _ : state) {
    benchmark::DoNotOptimize(image::RenderFace(style, scene, options, &rng));
  }
}
BENCHMARK(BM_RenderFaceGuided);

void BM_GaussianBlur(benchmark::State& state) {
  const image::Image face = MakeFace(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(image::GaussianBlur(face, 0.6));
  }
}
BENCHMARK(BM_GaussianBlur)->Arg(64);

// The Moderate level's dilation of a 64 px face outline (radius 6).
void BM_DilateDisc(benchmark::State& state) {
  const image::Image outline = image::ExtractForeground(MakeFace(64, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(image::DilateDisc(outline, 6));
  }
}
BENCHMARK(BM_DilateDisc);

void BM_ExtractForeground(benchmark::State& state) {
  const image::Image face = MakeFace(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(image::ExtractForeground(face));
  }
}
BENCHMARK(BM_ExtractForeground)->Range(32, 256);

void BM_MaskAccurate(benchmark::State& state) {
  const image::Image face = MakeFace(64, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        image::GenerateMask(face, image::MaskLevel::kAccurate));
  }
}
BENCHMARK(BM_MaskAccurate);

void BM_MaskModerate(benchmark::State& state) {
  const image::Image face = MakeFace(64, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        image::GenerateMask(face, image::MaskLevel::kModerate));
  }
}
BENCHMARK(BM_MaskModerate);

void BM_MaskImprecise(benchmark::State& state) {
  const image::Image face = MakeFace(64, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        image::GenerateMask(face, image::MaskLevel::kImprecise));
  }
}
BENCHMARK(BM_MaskImprecise);

void BM_Embed(benchmark::State& state) {
  const embedding::SimulatedEmbedder embedder;
  const image::Image face = MakeFace(64, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedder.Embed(face));
  }
}
BENCHMARK(BM_Embed);

}  // namespace
