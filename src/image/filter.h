#ifndef CHAMELEON_IMAGE_FILTER_H_
#define CHAMELEON_IMAGE_FILTER_H_

#include "src/image/image.h"
#include "src/util/rng.h"

namespace chameleon::image {

/// Kernel radius GaussianBlur uses for `sigma`: ceil(3*sigma), at least 1;
/// 0 when sigma <= 0 (no blur). An output pixel reads input pixels at most
/// this far away along each axis.
int GaussianBlurRadius(double sigma);

/// Separable Gaussian blur with the given sigma (kernel radius 3*sigma,
/// edges clamped).
Image GaussianBlur(const Image& input, double sigma);

/// Adds iid Gaussian pixel noise with the given stddev (clamped to
/// [0, 255]); the knob the foundation-model simulator uses for artifacts.
/// With `keep` (1-channel, same width and height), only pixels where keep
/// is non-zero get noise; every other channel value advances `rng` with
/// SkipGaussian, so the stream ends where a full pass would leave it.
void AddGaussianNoise(Image* image, double stddev, util::Rng* rng,
                      const Image* keep = nullptr);

/// Adds horizontal banding artifacts of the given amplitude every
/// `period` rows — a caricature of generative inpainting seams.
void AddBanding(Image* image, int period, double amplitude);

/// Binary dilation of a 1-channel mask with a disc of the given radius.
Image DilateDisc(const Image& mask, int radius);

/// Binary dilation of a 1-channel mask with a (2*radius+1)^2 square.
Image DilateBox(const Image& mask, int radius);

/// Mean absolute luminance difference between two same-sized images.
double MeanAbsoluteDifference(const Image& a, const Image& b);

}  // namespace chameleon::image

#endif  // CHAMELEON_IMAGE_FILTER_H_
