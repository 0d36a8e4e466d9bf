#include "src/image/filter.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace chameleon::image {
namespace {

// Dilates a 1-channel mask by a shape symmetric about its center whose
// half-width `dy` rows off center is half_width[|dy|]: a pixel is set iff
// some row within reach has a set pixel inside the shape's chord at that
// row, which is exactly the scatter of the shape over every set pixel.
Image DilateRows(const Image& mask, const std::vector<int>& half_width) {
  const int radius = static_cast<int>(half_width.size()) - 1;
  const int w = mask.width();
  const int h = mask.height();
  // nearest[y * w + x]: distance from x to the nearest set pixel of row y
  // (more than any half-width when the row has none).
  const int far = w + radius + 1;
  std::vector<int> nearest(static_cast<size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    int* row = nearest.data() + static_cast<size_t>(y) * w;
    int last = -far;
    for (int x = 0; x < w; ++x) {
      if (mask.at(x, y, 0) != 0) last = x;
      row[x] = x - last;
    }
    last = w + far;
    for (int x = w - 1; x >= 0; --x) {
      if (mask.at(x, y, 0) != 0) last = x;
      row[x] = std::min(row[x], last - x);
    }
  }
  Image out(w, h, 1, 0);
  for (int y = 0; y < h; ++y) {
    uint8_t* dst = out.mutable_pixels().data() + static_cast<size_t>(y) * w;
    for (int dy = -radius; dy <= radius; ++dy) {
      const int sy = y + dy;
      if (sy < 0 || sy >= h) continue;
      const int reach = half_width[std::abs(dy)];
      const int* row = nearest.data() + static_cast<size_t>(sy) * w;
      for (int x = 0; x < w; ++x) {
        if (row[x] <= reach) dst[x] = 255;
      }
    }
  }
  return out;
}

}  // namespace

int GaussianBlurRadius(double sigma) {
  if (sigma <= 0.0) return 0;
  return std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
}

Image GaussianBlur(const Image& input, double sigma) {
  const int radius = GaussianBlurRadius(sigma);
  if (radius == 0 || input.empty()) return input;
  const int taps = 2 * radius + 1;
  std::vector<double> kernel(taps);
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    kernel[i + radius] = std::exp(-(i * i) / (2.0 * sigma * sigma));
    sum += kernel[i + radius];
  }
  for (double& k : kernel) k /= sum;

  const int w = input.width();
  const int h = input.height();
  const int ch = input.channels();
  const size_t row = static_cast<size_t>(w) * ch;

  // Horizontal pass into a double buffer, then vertical pass. Every output
  // sums its taps in kernel order from 0.0, so the bytes do not depend on
  // which loop computed it. Interior columns [radius, w - radius) read
  // their taps directly, a whole row span per tap; border columns clamp.
  const int interior_end = std::max(radius, w - radius);
  const size_t span = static_cast<size_t>(interior_end - radius) * ch;
  std::vector<double> temp(row * h, 0.0);
  for (int y = 0; y < h; ++y) {
    const uint8_t* in = input.pixels().data() + y * row;
    double* out = temp.data() + y * row;
    double* interior = out + static_cast<size_t>(radius) * ch;
    for (int k = 0; k < taps; ++k) {
      const double weight = kernel[k];
      const uint8_t* tap = in + static_cast<size_t>(k) * ch;
      for (size_t j = 0; j < span; ++j) interior[j] += weight * tap[j];
    }
    auto border = [&](int x) {
      for (int c = 0; c < ch; ++c) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          const int sx = std::clamp(x + i, 0, w - 1);
          acc += kernel[i + radius] * in[static_cast<size_t>(sx) * ch + c];
        }
        out[static_cast<size_t>(x) * ch + c] = acc;
      }
    };
    for (int x = 0; x < std::min(radius, w); ++x) border(x);
    for (int x = interior_end; x < w; ++x) border(x);
  }
  // Vertical pass: each output row accumulates whole (clamped) input rows,
  // one tap at a time in kernel order.
  Image out(w, h, ch);
  std::vector<double> acc(row);
  for (int y = 0; y < h; ++y) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int i = -radius; i <= radius; ++i) {
      const double k = kernel[i + radius];
      const double* src = temp.data() + std::clamp(y + i, 0, h - 1) * row;
      for (size_t j = 0; j < row; ++j) acc[j] += k * src[j];
    }
    uint8_t* dst = out.mutable_pixels().data() + y * row;
    for (size_t j = 0; j < row; ++j) {
      dst[j] = static_cast<uint8_t>(std::clamp(acc[j], 0.0, 255.0));
    }
  }
  return out;
}

void AddGaussianNoise(Image* image, double stddev, util::Rng* rng,
                      const Image* keep) {
  if (stddev <= 0.0) return;
  if (keep != nullptr && (keep->width() != image->width() ||
                          keep->height() != image->height())) {
    keep = nullptr;  // A region of another geometry: noise everything.
  }
  const int ch = image->channels();
  const size_t n = static_cast<size_t>(image->width()) * image->height();
  uint8_t* p = image->mutable_pixels().data();
  for (size_t i = 0; i < n; ++i, p += ch) {
    if (keep != nullptr && keep->pixels()[i * keep->channels()] == 0) {
      for (int c = 0; c < ch; ++c) rng->SkipGaussian();
      continue;
    }
    for (int c = 0; c < ch; ++c) {
      const double v = p[c] + rng->NextGaussian(0.0, stddev);
      p[c] = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
}

void AddBanding(Image* image, int period, double amplitude) {
  if (period <= 0 || amplitude <= 0.0) return;
  for (int y = 0; y < image->height(); ++y) {
    if ((y / period) % 2 == 0) continue;
    for (int x = 0; x < image->width(); ++x) {
      for (int c = 0; c < image->channels(); ++c) {
        const double v = image->at(x, y, c) + amplitude;
        image->at(x, y, c) = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
      }
    }
  }
}

Image DilateDisc(const Image& mask, int radius) {
  if (radius <= 0) return mask;
  // The disc's half-width d rows off center: the largest k with
  // k^2 + d^2 <= radius^2.
  std::vector<int> half_width(radius + 1);
  for (int d = 0; d <= radius; ++d) {
    int k = 0;
    while ((k + 1) * (k + 1) + d * d <= radius * radius) ++k;
    half_width[d] = k;
  }
  return DilateRows(mask, half_width);
}

Image DilateBox(const Image& mask, int radius) {
  if (radius <= 0) return mask;
  return DilateRows(mask, std::vector<int>(radius + 1, radius));
}

double MeanAbsoluteDifference(const Image& a, const Image& b) {
  double sum = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      sum += std::fabs(a.Luminance(x, y) - b.Luminance(x, y));
    }
  }
  return sum / (static_cast<double>(a.width()) * a.height());
}

}  // namespace chameleon::image
