// Compact per-feature distribution sketches and drift scoring.
//
// A FeatureSketch is the smallest summary that still supports honest
// distribution comparison: exact count/mean/M2 (Welford) for the moments
// plus a fixed-bin histogram (with explicit under/overflow bins) whose
// edges are chosen once — at training time — and then reused verbatim by
// every later observer, so a reference sketch persisted inside a model
// artifact (core/serialize) and a live sketch built over
// incoming inference graphs are bin-compatible by construction.
//
// Divergence is scored per feature with the population stability index
// over the shared bins; PSI is symmetric in (ref, live) and is the
// conventional deployment-drift metric (rule of thumb: < 0.1 stable,
// 0.1-0.25 moderate shift, > 0.25 action required).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace paragraph::obs {

class FeatureSketch {
 public:
  FeatureSketch() = default;
  explicit FeatureSketch(std::string name) : name_(std::move(name)) {}

  // Same name and bin edges as `ref`, all counts zero. This is how live
  // observers stay comparable to a persisted reference.
  static FeatureSketch like(const FeatureSketch& ref);

  // Fixes the histogram range to [lo, hi] with `nbins` equal-width bins.
  // Values outside land in the under/overflow bins. Must be called before
  // the first add() for the histogram to fill (moments always accumulate).
  void configure_bins(double lo, double hi, std::size_t nbins);

  void add(double v);

  const std::string& name() const { return name_; }
  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double m2() const { return m2_; }
  double variance() const { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0; }
  double stdev() const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  bool has_bins() const { return !bins_.empty(); }
  const std::vector<std::uint64_t>& bins() const { return bins_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  // Sum over bins + under/overflow (== count() once bins are configured
  // before the first add).
  std::uint64_t binned_count() const;

  JsonValue to_json() const;

  // Persistence hooks for core/serialize (plain-data restore).
  struct State {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::vector<std::uint64_t> bins;
  };
  State state() const;
  static FeatureSketch from_state(State s);

 private:
  std::string name_;
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double lo_ = 0.0;
  double hi_ = 0.0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::vector<std::uint64_t> bins_;
};

// Population stability index between two bin-compatible sketches
// (same edges, same bin count; under/overflow participate as bins).
// Empty-histogram or count-0 inputs score 0. Bin probabilities are
// epsilon-smoothed so a bin empty on one side cannot produce infinity.
double population_stability_index(const FeatureSketch& ref, const FeatureSketch& live);

struct DriftScore {
  std::string feature;
  double psi = 0.0;
  // Expected PSI under the no-shift null from finite sampling alone,
  // approximately (bins - 1) * (1/n_ref + 1/n_live). Raw PSI is biased
  // upward by this amount even when the distributions are identical, so
  // warn decisions use `excess` (raw minus the null mean, floored at 0).
  double null_psi = 0.0;
  double excess = 0.0;
  std::uint64_t ref_count = 0;
  std::uint64_t live_count = 0;
  // False when either side has fewer than kMinDriftSamples binned values;
  // the PSI is still reported but too noisy to act on, so low-sample
  // features are excluded from DriftReport::max_psi.
  bool scored = true;
};

// Minimum per-side sample count for a feature's PSI to participate in
// max_psi / warning decisions.
inline constexpr std::uint64_t kMinDriftSamples = 32;

struct DriftReport {
  std::vector<DriftScore> features;  // reference order
  // Largest bias-corrected PSI (DriftScore::excess) over scored features;
  // this is the number compared against the warn threshold.
  double max_psi = 0.0;
  std::string max_feature;
  bool any() const { return !features.empty(); }
  JsonValue to_json() const;
};

// Scores every live sketch against the reference sketch of the same name
// (bin-incompatible or missing pairs are skipped). Does not publish
// metrics — see eval/drift.h for the gauge-publishing wrapper.
DriftReport score_drift(const std::vector<FeatureSketch>& ref,
                        const std::vector<FeatureSketch>& live);

}  // namespace paragraph::obs
