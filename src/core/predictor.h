// ParaGraph predictor: embedding model + FC regression head, target
// scaling, and the training/evaluation loop. This is the paper's primary
// contribution assembled from the substrates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dataset/dataset.h"
#include "eval/metrics.h"
#include "gnn/models.h"
#include "obs/sketch.h"

namespace paragraph::gnn {
class PlanCache;  // gnn/plan_cache.h
}
namespace paragraph::dataset {
class ShardStore;  // dataset/shards.h
}

namespace paragraph::core {

struct PredictorConfig {
  gnn::ModelKind model = gnn::ModelKind::kParaGraph;
  dataset::TargetKind target = dataset::TargetKind::kCap;
  std::size_t embed_dim = 32;  // paper: F = 32
  std::size_t num_layers = 5;  // paper: L = 5
  // Attention heads for the ParaGraph variants. The paper used 1 (GPU
  // memory bound) and conjectured more would help; see
  // bench_ext_multihead.
  std::size_t attention_heads = 1;
  // FC head depth; the paper uses 4 for CAP and 2 for device parameters.
  // 0 = pick the paper default for the target.
  std::size_t fc_layers = 0;
  // CAP only: maximum prediction value in fF. Training points above it are
  // dropped (Section IV); evaluation is restricted to truth <= max_v.
  double max_v_ff = 1e7;  // 10 pF
  int epochs = 150;
  float learning_rate = 0.01f;  // paper: ADAM with lr = 0.01
  // Global gradient-norm clip; stabilises the attention models on full-
  // graph batches (0 disables).
  float grad_clip = 1.0f;
  // Cosine learning-rate decay to lr * lr_final_fraction over the run;
  // locks in the good optimum instead of bouncing out of it late.
  float lr_final_fraction = 0.02f;
  std::uint64_t seed = 1;
  // Dataset-generation scale of the synthetic suite the model was trained
  // on. Persisted by core/serialize; with `seed` it names the suite
  // evaluate and report score by default. Normalisation never depends on
  // it: the model carries its own statistics (GnnPredictor::normalizer).
  double scale = 0.25;
  // Graph-level data parallelism: number of circuits whose forward/backward
  // run concurrently per optimiser step, with gradients merged in circuit
  // order and averaged before Adam. 1 (default) keeps the classic
  // one-step-per-graph schedule bit-for-bit; >1 is a different (batched)
  // schedule whose results are deterministic for any thread count.
  std::size_t batch_size = 1;
  // Runtime thread count recorded at training time (model-file metadata;
  // 0 = unrecorded). Purely informational — results don't depend on it.
  std::size_t train_threads = 0;

  std::size_t effective_fc_layers() const {
    if (fc_layers != 0) return fc_layers;
    return target == dataset::TargetKind::kCap ? 4 : 2;
  }
};

// Maps raw target values to training space and back.
// CAP: y' = y / max_v (training points with y > max_v are excluded).
// Device parameters: z-score fit on the training pool.
class TargetScaler {
 public:
  // The per-target policy every trainer applies: for_cap(max_v_ff) for
  // CAP, fit_log_zscore for RES, fit_zscore for every other target.
  // `pooled` holds the training targets (unused for CAP).
  static TargetScaler fit(dataset::TargetKind target, double max_v_ff,
                          const std::vector<float>& pooled);
  static TargetScaler for_cap(double max_v_ff);
  static TargetScaler fit_zscore(const std::vector<float>& train_values);
  // z-score in log10 space; used for the wide-range RES extension target.
  static TargetScaler fit_log_zscore(const std::vector<float>& train_values);

  float transform(float raw) const;
  float inverse(float scaled) const;
  // False for training points outside the scaler's valid range (CAP > max_v).
  bool in_range(float raw) const;
  double max_v() const { return max_v_; }

  // Plain-data view for persistence (core/serialize.h).
  struct State {
    bool zscore = false;
    bool log_space = false;
    double mean = 0.0;
    double stdev = 1.0;
    double max_v = 0.0;
  };
  State state() const { return {zscore_, log_space_, mean_, stdev_, max_v_}; }
  static TargetScaler from_state(const State& s);

 private:
  bool zscore_ = false;
  bool log_space_ = false;
  double mean_ = 0.0;
  double stdev_ = 1.0;
  double max_v_ = 0.0;  // 0 when z-scoring
};

// Per-circuit prediction in raw units, restricted to in-range nodes.
// `type_slot`/`node_index` (parallel to truth/pred) locate each prediction
// back in the sample's graph: slot within target_node_types(target) and
// local node index of that type — the provenance `paragraph report` uses
// to name the worst nets. Producers that cover every node in order (e.g.
// CapEnsemble::evaluate over net nodes) may leave them empty, meaning
// "position i is node i of slot 0".
struct CircuitPrediction {
  std::string name;
  std::vector<float> truth;
  std::vector<float> pred;
  std::vector<std::int32_t> type_slot;
  std::vector<std::int32_t> node_index;
  eval::RegressionMetrics metrics() const;
};

struct EvalResult {
  std::vector<CircuitPrediction> circuits;
  // Metrics pooled over every node of every circuit.
  eval::RegressionMetrics pooled() const;
};

// Per-epoch training telemetry handed to the optional train() callback
// and mirrored into the obs metrics registry when instrumentation is on.
struct EpochRecord {
  int epoch = 0;          // 0-based
  double loss = 0.0;      // mean loss over the epoch's batches
  double grad_norm = 0.0; // pre-clip global gradient norm of the last step
  double wall_ms = 0.0;   // epoch wall time
  double lr = 0.0;        // effective learning rate this epoch
  std::uint64_t rss_kb = 0;  // resident set at epoch end (0 off-Linux)
};
using EpochCallback = std::function<void(const EpochRecord&)>;

struct TrainCheckpoint;  // core/checkpoint.h

// Fault-tolerance knobs for train().
struct TrainOptions {
  // Write a checkpoint to `checkpoint_path` after every N completed
  // epochs (0 = off). Writes are atomic, so an interrupted run always
  // finds the last complete checkpoint.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  // Resume state from core::load_checkpoint. The predictor itself must
  // have been reconstructed from the checkpoint's model bytes
  // (predictor_from_bytes), so weights/scaler/config already match; train
  // restores the optimiser moments, shuffle stream, and recovery state,
  // making the resumed run bit-identical to an uninterrupted one.
  const TrainCheckpoint* resume = nullptr;
};

class GnnPredictor {
 public:
  GnnPredictor(const PredictorConfig& config);

  const PredictorConfig& config() const { return config_; }

  // Trains on ds.train; returns per-epoch mean losses (resumed runs:
  // losses of the epochs this call ran). `on_epoch`, when set, fires
  // after every epoch with that epoch's telemetry.
  //
  // Numeric guardrails: a step whose loss or gradient norm is non-finite
  // is skipped (weights and Adam state untouched), the best-snapshot
  // weights are restored, and the learning rate is backed off (bounded);
  // after 5 consecutive non-finite steps train throws
  // util::DivergenceError. Counters: train.nonfinite_steps,
  // train.lr_backoffs.
  std::vector<double> train(const dataset::SuiteDataset& ds,
                            const EpochCallback& on_epoch = nullptr,
                            const TrainOptions& options = {});

  // Out-of-core training: samples stream from `store` through its
  // LRU-bounded working set instead of residing wholly in memory (the
  // prepared plans/batches are bounded by the same byte budget).
  // Bit-identical to the in-memory overload on the same dataset: both
  // run one pre-epoch fit (drift sketches, target scaler, eligible
  // samples) over the training samples in order, per-sample preparation
  // is deterministic, and the shuffle stream depends only on the
  // eligible-sample count.
  std::vector<double> train(dataset::ShardStore& store, const EpochCallback& on_epoch = nullptr,
                            const TrainOptions& options = {});

  // Predicts raw-unit values for in-range nodes of each sample.
  EvalResult evaluate(const dataset::SuiteDataset& ds,
                      const std::vector<dataset::Sample>& samples) const;

  // Out-of-core evaluation over the store's test (default) or train
  // split, normalised with normalizer() rather than the store's
  // statistics. Serial over circuits so peak memory stays bounded by the
  // store's working set; per-circuit predictions are bit-identical to
  // the in-memory overload given a dataset carrying normalizer().
  EvalResult evaluate(dataset::ShardStore& store, bool test_split = true) const;

  // Raw-unit predictions for ALL nodes of the target's node types,
  // concatenated in (type slot, node) order. Used by Algorithm 2.
  std::vector<float> predict_all(const dataset::SuiteDataset& ds,
                                 const dataset::Sample& sample) const;

  // Same, reusing a caller-built GraphPlan (batched inference paths build
  // the plan once per circuit and share it across models/calls).
  std::vector<float> predict_all(const dataset::SuiteDataset& ds, const dataset::Sample& sample,
                                 const gnn::GraphPlan& plan) const;

  // Hierarchy-aware variant: memoizes per-subckt-template plans and
  // interior embeddings in `cache`, running the model only on the reduced
  // graph. Bit-identical to the plain overloads (gnn/plan_cache.h explains
  // why); falls back to them when the sample has no cacheable hierarchy.
  std::vector<float> predict_all(const dataset::SuiteDataset& ds, const dataset::Sample& sample,
                                 gnn::PlanCache& cache) const;

  // Identity of the current weights; reassigned whenever train() completes
  // so memoized embeddings keyed by it are never stale.
  std::uint64_t model_key() const { return model_key_; }

  // True when this model's plans need the homogenised edge view; callers
  // building shared GraphPlans pass this to gnn::GraphPlan::build.
  bool needs_homo() const;

  // Final-layer embeddings for one node type (e.g. for the t-SNE study).
  nn::Matrix embeddings(const dataset::SuiteDataset& ds, const dataset::Sample& sample,
                        graph::NodeType type) const;

  // Per-layer, per-edge-type attention statistics on one circuit
  // (interpretability study; only the attention-based models fill it).
  gnn::AttentionRecord attention_analysis(const dataset::SuiteDataset& ds,
                                          const dataset::Sample& sample) const;

  std::size_t num_parameters() const;
  const TargetScaler& scaler() const { return scaler_; }
  void set_scaler(const TargetScaler& s) { scaler_ = s; }

  // Training-set feature-distribution sketches (drift reference). Filled
  // by train() and persisted by core/serialize; empty for an untrained
  // model.
  const std::vector<obs::FeatureSketch>& feature_sketches() const { return sketches_; }
  void set_feature_sketches(std::vector<obs::FeatureSketch> s) { sketches_ = std::move(s); }

  // The training set's feature statistics: train() takes them from its
  // data, core/serialize persists them (model format v6), and every
  // loader normalises its inputs with them. Unfitted for an untrained
  // model.
  const dataset::FeatureNormalizer& normalizer() const { return normalizer_; }
  void set_normalizer(dataset::FeatureNormalizer n) { normalizer_ = std::move(n); }

  // Trainable parameters in deterministic construction order (embedding
  // model first, then the FC head); used by the optimiser and by
  // save/load_predictor.
  std::vector<nn::Tensor> parameters() const;

 private:
  // One sample staged for training: plan, normalised batch, per-slot
  // in-range indices and scaled targets, plus the Sample backing the batch
  // (owned on the streamed path). Defined in predictor.cpp.
  struct Prepared;
  // Indexable source of prepared samples. The in-memory path serves a
  // prebuilt vector; the streamed path materialises through an LRU so the
  // same train_impl drives both without knowing which it has.
  struct PreparedSource {
    std::size_t count = 0;
    std::function<std::shared_ptr<const Prepared>(std::size_t)> get;
  };
  std::vector<double> train_impl(const PreparedSource& src, const EpochCallback& on_epoch,
                                 const TrainOptions& options);
  // Training sample i of n; in-memory training hands out non-owning
  // aliases, streamed training the store's materialised samples.
  using SampleAt = std::function<std::shared_ptr<const dataset::Sample>(std::size_t)>;
  // The pre-epoch fit both train() overloads share: adopts the data's
  // normaliser `norm`, then fits drift sketches and target scaler from the
  // n samples behind `at`. Returns the indices of the samples with any
  // in-range target, in order.
  std::vector<std::size_t> fit_training_set(const dataset::FeatureNormalizer& norm, std::size_t n,
                                            const SampleAt& at);
  // Throws std::logic_error when no target of the sample is in the
  // scaler's range (fit_training_set filters those samples out).
  std::shared_ptr<const Prepared> prepare_sample(std::shared_ptr<const dataset::Sample> s) const;
  // The one inference tail: the FC head over each target type slot's
  // embeddings, inverse-scaled, concatenated in (slot, node) order.
  std::vector<float> head_predictions(const graph::HeteroGraph& g,
                                      const gnn::TypeTensors& emb) const;
  CircuitPrediction evaluate_circuit(const dataset::FeatureNormalizer& norm,
                                     const dataset::Sample& s) const;

  PredictorConfig config_;
  std::uint64_t model_key_ = 0;
  TargetScaler scaler_;
  std::vector<obs::FeatureSketch> sketches_;
  dataset::FeatureNormalizer normalizer_;
  std::unique_ptr<gnn::EmbeddingModel> embedding_;
  std::unique_ptr<nn::Mlp> head_;
};

}  // namespace paragraph::core
