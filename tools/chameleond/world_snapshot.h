#ifndef CHAMELEON_TOOLS_CHAMELEOND_WORLD_SNAPSHOT_H_
#define CHAMELEON_TOOLS_CHAMELEOND_WORLD_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "src/coverage/incremental_mup.h"
#include "src/embedding/embedder.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/corpus.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/image/face_renderer.h"
#include "src/svm/one_class_svm.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "tools/chameleond/protocol.h"

namespace chameleon::daemon {

/// The `micro` dataset behind DatasetKind::kMicro: a deliberately small
/// FERET-schema corpus (Middle Eastern absent entirely, Asian/Hispanic
/// thin) whose minimum-level repair runs in a fraction of a second.
/// Exposed so tests and benches can run the identical repair directly
/// against core::Chameleon and compare digests with daemon runs.
[[nodiscard]] util::Result<fm::Corpus> MakeMicroCorpus(
    const embedding::Embedder* embedder);

/// One dataset world, built once and shared read-only by every request
/// for that dataset (DESIGN.md §13): the base corpus with the embedder
/// that embedded it, the simulator's style hooks for its schema, the
/// distribution-test OCSVM trained on its real tuples, and the base
/// corpus's MUP index per tau. A request repairs a copy of base() — a
/// copy-on-write overlay sharing the base's pixel buffers — so nothing a
/// request does reaches the snapshot. Every part is a pure function of
/// the DatasetKind (fixed seeds), so a rebuilt snapshot — e.g. after
/// `--resume` — is the same world, and a request against it produces
/// the same bytes as a cold standalone run.
class WorldSnapshot {
 public:
  /// Renders and embeds the dataset's corpus and trains its OCSVM under
  /// the daemon's fixed rejection options (core::ChameleonOptions's
  /// defaults; no request field changes them).
  [[nodiscard]] static util::Result<std::shared_ptr<const WorldSnapshot>>
  Build(DatasetKind kind);

  WorldSnapshot(const WorldSnapshot&) = delete;
  WorldSnapshot& operator=(const WorldSnapshot&) = delete;

  const embedding::Embedder* embedder() const { return &embedder_; }
  const fm::Corpus& base() const { return base_; }
  const fm::FaceStyleFn& style() const { return style_; }
  const image::SceneStyle& scene() const { return scene_; }
  const std::shared_ptr<const svm::OneClassSvm>& distribution_model() const {
    return distribution_model_;
  }

  /// A private copy of the base corpus's MUP index at `tau`, for one
  /// request to patch. The first call per tau builds it from base()
  /// (`num_threads` workers; the index is identical at every count) and
  /// sets `*hit` false; every later call — including one that waited for
  /// that build — clones it and sets `*hit` true.
  [[nodiscard]] util::Result<coverage::IncrementalMupIndex> BaseIndex(
      int64_t tau, int num_threads, bool* hit) const;

 private:
  WorldSnapshot() = default;

  embedding::SimulatedEmbedder embedder_;
  fm::Corpus base_;
  fm::FaceStyleFn style_;
  image::SceneStyle scene_;
  std::shared_ptr<const svm::OneClassSvm> distribution_model_;

  /// Held across a build, so concurrent first requests at one tau build
  /// it once. Index builds are the coverage stage (~2% of a request).
  mutable std::mutex frontier_mutex_;
  mutable std::map<int64_t, coverage::IncrementalMupIndex> frontiers_
      CHAMELEON_GUARDED_BY(frontier_mutex_);
};

/// The daemon's world cache: one WorldSnapshot per DatasetKind, built on
/// first use and kept for the cache's lifetime (its size is bounded by
/// the enum). Builds are single-flight: concurrent first requests for a
/// dataset wait for one build. A failed build is not cached; the next
/// request retries it.
class WorldCache {
 public:
  [[nodiscard]] util::Result<std::shared_ptr<const WorldSnapshot>> Get(
      DatasetKind kind);

  /// Builds started so far (successful or not).
  int64_t builds() const;

 private:
  struct Slot {
    bool building = false;
    std::shared_ptr<const WorldSnapshot> snapshot;
  };

  mutable std::mutex mutex_;
  std::condition_variable built_cv_;
  std::map<DatasetKind, Slot> slots_ CHAMELEON_GUARDED_BY(mutex_);
  int64_t builds_ CHAMELEON_GUARDED_BY(mutex_) = 0;
};

}  // namespace chameleon::daemon

#endif  // CHAMELEON_TOOLS_CHAMELEOND_WORLD_SNAPSHOT_H_
