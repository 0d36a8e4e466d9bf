#ifndef CHAMELEON_FM_CORPUS_H_
#define CHAMELEON_FM_CORPUS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/data/dataset.h"
#include "src/image/image.h"
#include "src/util/status.h"

namespace chameleon::fm {

/// A multi-modal corpus: the relational view (Dataset) plus per-tuple
/// image payloads and the simulator's latent realism ground truth.
/// tuple(i).payload_id indexes image() and `realism`.
///
/// Payload pixels are immutable once added and held by shared pointer,
/// so a copy is a copy-on-write overlay: it shares every existing pixel
/// buffer with the original and owns only what is appended to it later.
/// The serving layer repairs such copies of one shared base corpus.
struct Corpus {
  data::Dataset dataset;
  std::vector<double> realism;

  /// Appends a tuple with its payload, wiring payload_id.
  [[nodiscard]] util::Status Add(data::Tuple tuple, image::Image image,
                   double tuple_realism) {
    tuple.payload_id = static_cast<int64_t>(images_.size());
    CHAMELEON_RETURN_NOT_OK(dataset.Add(std::move(tuple)));
    AddPayloadImage(std::move(image));
    realism.push_back(tuple_realism);
    return util::Status::Ok();
  }

  /// Appends an annotation-only tuple (no payload), for coverage-only
  /// experiments.
  [[nodiscard]] util::Status AddAnnotationOnly(data::Tuple tuple) {
    tuple.payload_id = -1;
    return dataset.Add(std::move(tuple));
  }

  /// Appends a payload image without a tuple, for loaders that wire
  /// tuples to payload ids afterwards. The caller keeps `realism` in
  /// step.
  void AddPayloadImage(image::Image image) {
    images_.push_back(
        std::make_shared<const image::Image>(std::move(image)));
  }

  /// The payload image `payload_id` (0 <= payload_id < num_images()).
  const image::Image& image(int64_t payload_id) const {
    return *images_[static_cast<size_t>(payload_id)];
  }
  size_t num_images() const { return images_.size(); }

  /// Realism values of the real (non-synthetic) tuples that carry
  /// payloads — the calibration sample for estimating p.
  std::vector<double> RealTupleRealism() const {
    std::vector<double> out;
    for (const auto& t : dataset.tuples()) {
      if (!t.synthetic && t.payload_id >= 0) {
        out.push_back(realism[t.payload_id]);
      }
    }
    return out;
  }

  /// Embeddings of the real (non-synthetic) tuples that have one — the
  /// training set of the distribution test.
  std::vector<std::vector<double>> RealEmbeddings() const {
    std::vector<std::vector<double>> out;
    for (const auto& t : dataset.tuples()) {
      if (!t.synthetic && !t.embedding.empty()) out.push_back(t.embedding);
    }
    return out;
  }

  /// Embeddings of all tuples that have one.
  std::vector<std::vector<double>> Embeddings() const {
    std::vector<std::vector<double>> out;
    for (const auto& t : dataset.tuples()) {
      if (!t.embedding.empty()) out.push_back(t.embedding);
    }
    return out;
  }

 private:
  std::vector<std::shared_ptr<const image::Image>> images_;
};

}  // namespace chameleon::fm

#endif  // CHAMELEON_FM_CORPUS_H_
