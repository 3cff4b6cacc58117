// Input-drift detection for deployed predictors.
//
// sketch_graphs() summarises a set of circuit graphs into per-feature
// obs::FeatureSketch objects: one per raw node-feature column of every
// node type (values sketched in signed-log1p space so multi-decade
// physical features spread across the histogram instead of piling into
// one bin) plus whole-graph stats (node/edge/net counts). Called without
// a reference it fits bin edges from the observed range — this is the
// train-time path whose result is persisted into the model artifact
// (core/serialize). Called with a reference it produces bin-compatible live
// sketches, which is what predict/evaluate maintain over incoming graphs.
//
// check_drift() scores live vs reference per feature (PSI), publishes
// `drift.<feature>` gauges and `drift.max`, and emits one structured
// warning line when the max crosses the threshold.
#pragma once

#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "obs/sketch.h"

namespace paragraph::eval {

// Conventional PSI action threshold (see obs/sketch.h).
inline constexpr double kDefaultDriftWarnThreshold = 0.25;

// 8 bins (plus under/overflow) keeps the null-hypothesis PSI noise floor
// (~k/n for n samples over k bins) well under the 0.25 action threshold
// for the suite's node counts while still resolving a real generator
// shift, which moves whole decades of mass.
std::vector<obs::FeatureSketch> sketch_graphs(std::span<const dataset::Sample> samples,
                                              const std::vector<obs::FeatureSketch>* ref = nullptr,
                                              std::size_t nbins = 8);

obs::DriftReport check_drift(const std::vector<obs::FeatureSketch>& ref,
                             const std::vector<obs::FeatureSketch>& live,
                             double warn_threshold = kDefaultDriftWarnThreshold);

// Streaming construction of the train-time sketches for out-of-core
// datasets (dataset/shards.h), where materialising every sample at once
// would defeat the memory bound. Protocol: observe_range() on every
// sample (pass 1), begin_fill(), observe_values() on the SAME samples in
// the SAME order (pass 2), finish(). The result is bit-identical to
// sketch_graphs() over the materialised sequence: min/max is
// order-insensitive, and each per-feature value stream arrives in the
// same (sample, row) order either way, so the Welford moments see the
// identical float sequence.
class SketchBuilder {
 public:
  explicit SketchBuilder(std::size_t nbins = 8) : nbins_(nbins) {}

  void observe_range(const dataset::Sample& s);
  void begin_fill();  // fixes bin edges from the observed ranges
  void observe_values(const dataset::Sample& s);
  std::vector<obs::FeatureSketch> finish();

 private:
  struct Range {
    double lo = 0.0, hi = 0.0;
    bool seen = false;
  };
  std::size_t nbins_;
  bool filling_ = false;
  std::vector<std::string> names_;
  std::vector<Range> ranges_;
  std::vector<obs::FeatureSketch> sketches_;
};

}  // namespace paragraph::eval
