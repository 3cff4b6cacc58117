#include "serve/registry.h"

#include "core/serialize.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace paragraph::serve {

ModelRegistry::ModelRegistry(RegistryConfig config) : config_(std::move(config)) {}

std::shared_ptr<const ModelBundle> ModelRegistry::build_bundle(std::uint64_t generation) {
  auto bundle = std::make_shared<ModelBundle>();
  bundle->generation = generation;
  bundle->datasets.resize(1 + config_.model_paths.size());
  if (!config_.ensemble_path.empty()) {
    bundle->ensemble.emplace(core::CapEnsemble::load(config_.ensemble_path));
    bundle->degraded = bundle->ensemble->degraded();
    bundle->dropped = bundle->ensemble->dropped_members();
    bundle->datasets[0].normalizer = bundle->ensemble->model(0).normalizer();
  }
  for (std::size_t i = 0; i < config_.model_paths.size(); ++i) {
    bundle->models.push_back(core::load_predictor(config_.model_paths[i]));
    bundle->datasets[1 + i].normalizer = bundle->models.back().normalizer();
  }
  return bundle;
}

void ModelRegistry::load_initial() {
  if (config_.ensemble_path.empty() && config_.model_paths.empty())
    throw std::invalid_argument("serve: need an --ensemble or at least one --model to serve");
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  auto bundle = build_bundle(next_generation_++);
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(bundle);
}

bool ModelRegistry::reload() {
  PARAGRAPH_TIMED_SCOPE("serve_reload");
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  std::shared_ptr<const ModelBundle> fresh;
  try {
    fresh = build_bundle(next_generation_);
  } catch (const std::exception& e) {
    // Old generation keeps serving; the operator gets the exact failure.
    obs::log_error("serve", "reload failed, keeping current model", {{"error", e.what()}});
    if (obs::enabled()) obs::MetricsRegistry::instance().counter("serve.reload_failures").add();
    return false;
  }
  ++next_generation_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = fresh;
  }
  obs::log_info("serve", "model reloaded",
                {{"generation", static_cast<unsigned long long>(fresh->generation)},
                 {"degraded", fresh->degraded}});
  if (obs::enabled()) {
    obs::MetricsRegistry::instance().counter("serve.reloads").add();
    obs::MetricsRegistry::instance()
        .gauge("ensemble.degraded")
        .set(fresh->degraded ? 1.0 : 0.0);
  }
  return true;
}

std::shared_ptr<const ModelBundle> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace paragraph::serve
