#include "tools/chameleond/world_snapshot.h"

#include <utility>

#include "src/core/chameleon.h"
#include "src/data/dataset.h"
#include "src/datasets/feret.h"
#include "src/datasets/synthetic_corpus.h"
#include "src/datasets/utkface.h"
#include "src/util/rng.h"

namespace chameleon::daemon {

/// Middle Eastern is absent entirely and Hispanic/Asian are thin,
/// mirroring the paper's FERET skew in miniature. Built from a fixed
/// seed, so every build is bit-identical: the daemon builds it once per
/// process (WorldSnapshot) and direct runs build the same corpus.
util::Result<fm::Corpus> MakeMicroCorpus(const embedding::Embedder* embedder) {
  fm::Corpus corpus;
  corpus.dataset = data::Dataset(datasets::FeretSchema());
  datasets::RenderSpec spec;
  spec.image_size = 24;
  const datasets::CombinationCounts counts = {
      {{0, datasets::kFeretWhite}, 30},    {{1, datasets::kFeretWhite}, 30},
      {{0, datasets::kFeretBlack}, 12},    {{1, datasets::kFeretBlack}, 12},
      {{0, datasets::kFeretAsian}, 5},     {{1, datasets::kFeretAsian}, 5},
      {{0, datasets::kFeretHispanic}, 3},  {{1, datasets::kFeretHispanic}, 3},
  };
  util::Rng rng(4242);
  CHAMELEON_RETURN_NOT_OK(datasets::FillCorpus(
      &corpus, counts, datasets::FeretFaceStyleFn(), datasets::FeretScene(),
      embedder, spec, &rng));
  return corpus;
}

util::Result<std::shared_ptr<const WorldSnapshot>> WorldSnapshot::Build(
    DatasetKind kind) {
  // Not make_shared: the constructor is private.
  std::shared_ptr<WorldSnapshot> world(new WorldSnapshot());
  util::Result<fm::Corpus> corpus =
      util::Status::InvalidArgument("unknown dataset kind");
  switch (kind) {
    case DatasetKind::kMicro:
      corpus = MakeMicroCorpus(&world->embedder_);
      world->style_ = datasets::FeretFaceStyleFn();
      world->scene_ = datasets::FeretScene();
      break;
    case DatasetKind::kFeret:
      corpus = datasets::MakeFeret(&world->embedder_, datasets::FeretOptions());
      world->style_ = datasets::FeretFaceStyleFn();
      world->scene_ = datasets::FeretScene();
      break;
    case DatasetKind::kUtkFace: {
      // The §6.4.1 challenge subset with payloads: big enough to be a
      // real repair, small enough for a serving deadline to matter.
      datasets::ChallengeOptions options;
      options.render.image_size = 32;
      corpus = datasets::MakeUtkFaceChallengeSubset(&world->embedder_, options);
      world->style_ = datasets::UtkFaceStyleFn();
      world->scene_ = datasets::UtkFaceScene();
      break;
    }
  }
  if (!corpus.ok()) return corpus.status();
  world->base_ = *std::move(corpus);

  // Exactly what RepairMinLevelMups would train per request; the model
  // carries no p and no rng state, so one serves every request.
  auto model = svm::OneClassSvm::Train(world->base_.RealEmbeddings(),
                                       core::ChameleonOptions().rejection.svm);
  if (!model.ok()) return model.status();
  world->distribution_model_ =
      std::make_shared<const svm::OneClassSvm>(*std::move(model));
  return std::shared_ptr<const WorldSnapshot>(std::move(world));
}

util::Result<coverage::IncrementalMupIndex> WorldSnapshot::BaseIndex(
    int64_t tau, int num_threads, bool* hit) const {
  std::lock_guard<std::mutex> lock(frontier_mutex_);
  auto it = frontiers_.find(tau);
  *hit = it != frontiers_.end();
  if (!*hit) {
    coverage::IncrementalMupOptions options;
    options.tau = tau;
    options.num_threads = num_threads;
    auto index = coverage::IncrementalMupIndex::FromDataset(base_.dataset,
                                                            options);
    if (!index.ok()) return index.status();
    it = frontiers_.emplace(tau, *std::move(index)).first;
  }
  return it->second;
}

util::Result<std::shared_ptr<const WorldSnapshot>> WorldCache::Get(
    DatasetKind kind) {
  std::unique_lock<std::mutex> lock(mutex_);
  Slot& slot = slots_[kind];  // map nodes are stable across inserts
  built_cv_.wait(lock, [&slot] { return !slot.building; });
  if (slot.snapshot != nullptr) return slot.snapshot;
  slot.building = true;
  ++builds_;
  lock.unlock();
  auto built = WorldSnapshot::Build(kind);
  lock.lock();
  slot.building = false;
  if (built.ok()) slot.snapshot = *built;
  built_cv_.notify_all();
  return built;
}

int64_t WorldCache::builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

}  // namespace chameleon::daemon
