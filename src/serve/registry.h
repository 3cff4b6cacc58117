// Resident model state for the serve daemon, with atomic hot reload.
//
// A ModelBundle is one immutable generation of everything a prediction
// needs: the CAP ensemble and/or single-target models loaded from disk,
// each with the feature normaliser its model file carries. Workers
// snapshot the current bundle (shared_ptr copy) once per micro-batch, so
// a reload never mutates state an in-flight batch is reading — the old
// generation stays alive until its last batch finishes, then the
// shared_ptr frees it.
//
// reload() rebuilds a bundle from the same configured paths through the
// crash-safe loaders (util checksummed readers). Failure semantics are
// the daemon's availability story:
//   * a corrupt/missing ensemble *member* degrades the ensemble
//     (CapEnsemble::load skips it and names the file) — the reload still
//     succeeds and the new generation answers from the survivors;
//   * a corrupt manifest or model file fails the reload — the previous
//     generation keeps serving and the failure is logged, never fatal.
#pragma once

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
  // Skinny datasets (no samples) holding the loaded models' normalisers:
  // dataset(0) serves the ensemble, dataset(1 + i) serves models[i].
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

  const RegistryConfig config_;
  mutable std::mutex mu_;  // guards current_ swap/read
  // Serialises whole reloads, which may come from any thread (the daemon's
  // I/O loop or a caller of the public Server::registry()): build_bundle
  // touches next_generation_. Never held with mu_.
  std::mutex reload_mu_;
  std::shared_ptr<const ModelBundle> current_;
  std::uint64_t next_generation_ = 1;  // guarded by reload_mu_
};

}  // namespace paragraph::serve
