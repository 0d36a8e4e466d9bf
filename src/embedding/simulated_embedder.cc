#include "src/embedding/simulated_embedder.h"

#include <cmath>

#include "src/util/rng.h"

namespace chameleon::embedding {
namespace {

// Downsampled luminance grid side. Deliberately coarse: each cell mixes
// subject and backdrop, so photographic context dominates the embedding
// and subject identity (e.g. skin tone) contributes a diluted signal —
// matching the behaviour of generic CNN embeddings on portraits.
constexpr int kGrid = 4;
// 16 luminance cells + 12 per-quadrant channel means + 3 global channel
// means + 6 border-band channel means + 1 gradient energy.
constexpr int kRawDim = kGrid * kGrid + 12 + 3 + 6 + 1;

}  // namespace

int SimulatedEmbedder::raw_dim() { return kRawDim; }

SimulatedEmbedder::SimulatedEmbedder(int dim, uint64_t seed) : dim_(dim) {
  util::Rng rng(seed);
  projection_ = linalg::Matrix(dim, kRawDim);
  const double scale = 1.0 / std::sqrt(static_cast<double>(kRawDim));
  for (int r = 0; r < dim; ++r) {
    for (int c = 0; c < kRawDim; ++c) {
      projection_.at(r, c) = rng.NextGaussian(0.0, scale);
    }
  }
}

std::vector<double> SimulatedEmbedder::RawFeatures(const image::Image& image) {
  std::vector<double> features;
  features.reserve(kRawDim);

  // Luminance plane, computed once per pixel for the grid and gradient.
  const int w = image.width();
  const int h = image.height();
  std::vector<double> lum(static_cast<size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      lum[static_cast<size_t>(y) * w + x] = image.Luminance(x, y);
    }
  }
  auto luminance = [&](int x, int y) {
    return lum[static_cast<size_t>(y) * w + x];
  };

  // Downsampled luminance grid (area means).
  for (int gy = 0; gy < kGrid; ++gy) {
    const int y0 = gy * h / kGrid;
    const int y1 = (gy + 1) * h / kGrid;
    for (int gx = 0; gx < kGrid; ++gx) {
      const int x0 = gx * w / kGrid;
      const int x1 = (gx + 1) * w / kGrid;
      double sum = 0.0;
      int count = 0;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          sum += luminance(x, y);
          ++count;
        }
      }
      features.push_back(count > 0 ? sum / (count * 255.0) : 0.0);
    }
  }

  // Per-quadrant channel means: coarse color composition.
  for (int qy = 0; qy < 2; ++qy) {
    for (int qx = 0; qx < 2; ++qx) {
      const int x0 = qx * w / 2;
      const int x1 = (qx + 1) * w / 2;
      const int y0 = qy * h / 2;
      const int y1 = (qy + 1) * h / 2;
      double sums[3] = {0, 0, 0};
      int64_t count = 0;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          for (int c = 0; c < 3; ++c) {
            sums[c] += image.at(x, y, image.channels() == 3 ? c : 0);
          }
          ++count;
        }
      }
      for (double s : sums) {
        features.push_back(count > 0 ? s / (count * 255.0) : 0.0);
      }
    }
  }

  // Global channel means.
  double channel_sum[3] = {0, 0, 0};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < 3; ++c) {
        channel_sum[c] += image.at(x, y, image.channels() == 3 ? c : 0);
      }
    }
  }
  for (double s : channel_sum) {
    features.push_back(s / (static_cast<double>(w) * h * 255.0));
  }

  // Border bands (top 10% and bottom 10% rows): the context signature.
  const int band = std::max(1, h / 10);
  auto band_means = [&](int y_start, int y_end) {
    double sums[3] = {0, 0, 0};
    int64_t count = 0;
    for (int y = y_start; y < y_end; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int c = 0; c < 3; ++c) {
          sums[c] += image.at(x, y, image.channels() == 3 ? c : 0);
        }
        ++count;
      }
    }
    for (double s : sums) {
      features.push_back(count > 0 ? s / (count * 255.0) : 0.0);
    }
  };
  band_means(0, band);
  band_means(h - band, h);

  // Gradient energy: texture signature.
  double grad = 0.0;
  for (int y = 0; y < h - 1; ++y) {
    for (int x = 0; x < w - 1; ++x) {
      grad += std::fabs(luminance(x + 1, y) - luminance(x, y)) +
              std::fabs(luminance(x, y + 1) - luminance(x, y));
    }
  }
  features.push_back(grad / (static_cast<double>(w) * h * 255.0));

  return features;
}

std::vector<double> SimulatedEmbedder::Embed(const image::Image& image) const {
  return projection_.Multiply(RawFeatures(image));
}

}  // namespace chameleon::embedding
