// Resident model state for the serve daemon, with atomic hot reload.
//
// A ModelBundle is one immutable generation of everything a prediction
// needs: the CAP ensemble and/or single-target models loaded from disk,
// plus (per distinct training seed/scale) the feature normaliser those
// models were fitted against. Workers snapshot the current bundle
// (shared_ptr copy) once per micro-batch, so a reload never mutates
// state an in-flight batch is reading — the old generation stays alive
// until its last batch finishes, then the shared_ptr frees it.
//
// reload() rebuilds a bundle from the same configured paths through the
// crash-safe loaders (util checksummed readers). Failure semantics are
// the daemon's availability story:
//   * a corrupt/missing ensemble *member* degrades the ensemble
//     (CapEnsemble::load skips it and names the file) — the reload still
//     succeeds and the new generation answers from the survivors;
//   * a corrupt manifest or model file fails the reload — the previous
//     generation keeps serving and the failure is logged, never fatal.
//
// Normaliser statistics depend only on (seed, scale) of the training
// dataset, so they are cached across reloads: swapping model weights does
// not pay the dataset rebuild again unless the training config changed.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/predictor.h"
#include "dataset/dataset.h"

namespace paragraph::serve {

struct RegistryConfig {
  std::string ensemble_path;              // empty = no ensemble
  std::vector<std::string> model_paths;   // additional single models
};

struct ModelBundle {
  std::uint64_t generation = 0;
  std::optional<core::CapEnsemble> ensemble;
  std::vector<core::GnnPredictor> models;
  // Skinny datasets (normaliser only; no samples): dataset(0) serves the
  // ensemble, dataset(1 + i) serves models[i]. Entries with identical
  // (seed, scale) share one underlying normaliser rebuild.
  std::vector<dataset::SuiteDataset> datasets;
  bool degraded = false;
  std::vector<core::CapEnsemble::DroppedMember> dropped;

  const dataset::SuiteDataset& ensemble_dataset() const { return datasets.front(); }
  const dataset::SuiteDataset& model_dataset(std::size_t i) const { return datasets.at(1 + i); }
};

class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryConfig config);

  // First load; throws (IoError/CorruptArtifactError) when nothing
  // loadable is configured — the daemon refuses to start empty.
  void load_initial();

  // Swaps in a freshly loaded generation. Returns false — previous
  // generation untouched — when any configured artifact fails to load.
  bool reload();

  std::shared_ptr<const ModelBundle> current() const;

 private:
  std::shared_ptr<const ModelBundle> build_bundle(std::uint64_t generation);
  // Normaliser for (seed, scale), built once and reused across
  // generations. Caller holds reload_mu_.
  const dataset::FeatureNormalizer& normalizer_for(std::uint64_t seed, double scale);

  const RegistryConfig config_;
  mutable std::mutex mu_;  // guards current_ swap/read
  // Serialises whole reloads, which may come from any thread (the daemon's
  // I/O loop or a caller of the public Server::registry()): build_bundle
  // touches next_generation_ and the normaliser cache. Never held with mu_.
  std::mutex reload_mu_;
  std::shared_ptr<const ModelBundle> current_;
  std::uint64_t next_generation_ = 1;  // guarded by reload_mu_
  std::map<std::pair<std::uint64_t, double>, dataset::FeatureNormalizer> normalizer_cache_;
};

}  // namespace paragraph::serve
