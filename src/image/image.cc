#include "src/image/image.h"

#include <string>

namespace chameleon::image {

void Image::SetPixel(int x, int y, uint8_t r, uint8_t g, uint8_t b) {
  if (!InBounds(x, y)) return;
  if (channels_ == 1) {
    at(x, y, 0) = static_cast<uint8_t>((299 * r + 587 * g + 114 * b) / 1000);
    return;
  }
  at(x, y, 0) = r;
  at(x, y, 1) = g;
  at(x, y, 2) = b;
}

void Image::SetPixel(int x, int y, uint8_t gray) {
  SetPixel(x, y, gray, gray, gray);
}

double Image::Luminance(int x, int y) const {
  if (channels_ == 1) return at(x, y, 0);
  return 0.299 * at(x, y, 0) + 0.587 * at(x, y, 1) + 0.114 * at(x, y, 2);
}

Image Image::ToGrayscale() const {
  Image out(width_, height_, 1);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      out.at(x, y, 0) = static_cast<uint8_t>(Luminance(x, y) + 0.5);
    }
  }
  return out;
}

Image Image::Resized(int new_width, int new_height) const {
  Image out(new_width, new_height, channels_);
  for (int y = 0; y < new_height; ++y) {
    const int sy = static_cast<int>(
        (static_cast<int64_t>(y) * height_) / new_height);
    for (int x = 0; x < new_width; ++x) {
      const int sx = static_cast<int>(
          (static_cast<int64_t>(x) * width_) / new_width);
      for (int c = 0; c < channels_; ++c) {
        out.at(x, y, c) = at(sx, sy, c);
      }
    }
  }
  return out;
}

double Image::NonZeroFraction() const {
  if (empty()) return 0.0;
  int64_t nonzero = 0;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      nonzero += at(x, y, 0) != 0;
    }
  }
  return static_cast<double>(nonzero) /
         (static_cast<double>(width_) * height_);
}

util::Result<Image> CompositeWithMask(const Image& bg, const Image& fg,
                                      const Image& mask) {
  if (bg.width() > fg.width() || bg.height() > fg.height() ||
      bg.channels() > fg.channels() || bg.width() > mask.width() ||
      bg.height() > mask.height() ||
      (bg.width() > 0 && bg.height() > 0 && mask.channels() < 1)) {
    return util::Status::InvalidArgument(
        "composite background " + std::to_string(bg.width()) + "x" +
        std::to_string(bg.height()) + "x" + std::to_string(bg.channels()) +
        " exceeds its foreground " + std::to_string(fg.width()) + "x" +
        std::to_string(fg.height()) + "x" + std::to_string(fg.channels()) +
        " or mask " + std::to_string(mask.width()) + "x" +
        std::to_string(mask.height()));
  }
  Image out = bg;
  for (int y = 0; y < bg.height(); ++y) {
    for (int x = 0; x < bg.width(); ++x) {
      if (mask.at(x, y, 0) == 0) continue;
      for (int c = 0; c < bg.channels(); ++c) {
        out.at(x, y, c) = fg.at(x, y, c);
      }
    }
  }
  return out;
}

}  // namespace chameleon::image
