#include "core/learners.h"

#include <stdexcept>

#include "baselines/gbrt.h"
#include "baselines/regressor.h"
#include "obs/profile.h"

namespace paragraph::core {

using dataset::Sample;
using dataset::SuiteDataset;
using dataset::TargetKind;
using graph::NodeType;
using nn::Matrix;

const char* learner_name(LearnerKind k) {
  switch (k) {
    case LearnerKind::kLinear: return "Linear";
    case LearnerKind::kXgb: return "XGB";
    case LearnerKind::kGcn: return "GCN";
    case LearnerKind::kGraphSage: return "GraphSage";
    case LearnerKind::kRgcn: return "RGCN";
    case LearnerKind::kGat: return "GAT";
    case LearnerKind::kParaGraph: return "ParaGraph";
  }
  return "unknown";
}

const std::vector<LearnerKind>& fig6_learners() {
  static const std::vector<LearnerKind> v = {
      LearnerKind::kLinear, LearnerKind::kXgb,  LearnerKind::kGcn,      LearnerKind::kRgcn,
      LearnerKind::kGat,    LearnerKind::kGraphSage, LearnerKind::kParaGraph};
  return v;
}

namespace {

gnn::ModelKind gnn_kind(LearnerKind k) {
  switch (k) {
    case LearnerKind::kGcn: return gnn::ModelKind::kGcn;
    case LearnerKind::kGraphSage: return gnn::ModelKind::kGraphSage;
    case LearnerKind::kRgcn: return gnn::ModelKind::kRgcn;
    case LearnerKind::kGat: return gnn::ModelKind::kGat;
    case LearnerKind::kParaGraph: return gnn::ModelKind::kParaGraph;
    default: throw std::invalid_argument("gnn_kind: not a GNN learner");
  }
}

std::vector<float> pooled_raw(const Sample& s, TargetKind target) {
  std::vector<float> out;
  const auto& types = dataset::target_node_types(target);
  for (std::size_t slot = 0; slot < types.size(); ++slot) {
    const auto& v = s.target_values(target, slot);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

}  // namespace

Matrix baseline_feature_matrix(const Sample& s, TargetKind target) {
  const auto& types = dataset::target_node_types(target);
  std::size_t rows = 0;
  for (const NodeType t : types) rows += s.graph.num_nodes(t);
  const std::size_t base_dim = graph::feature_dim(types[0]);
  const bool add_type_flag = types.size() > 1;
  Matrix x(rows, base_dim + (add_type_flag ? 1 : 0), 0.0f);
  std::size_t r = 0;
  for (std::size_t slot = 0; slot < types.size(); ++slot) {
    const Matrix& f = s.graph.features(types[slot]);
    for (std::size_t i = 0; i < f.rows(); ++i, ++r) {
      for (std::size_t c = 0; c < base_dim; ++c) x(r, c) = f(i, c);
      if (add_type_flag) x(r, base_dim) = static_cast<float>(slot);
    }
  }
  return x;
}

ClassicalPredictor::ClassicalPredictor(LearnerKind learner, TargetKind target, double max_v_ff)
    : learner_(learner), target_(target), max_v_ff_(max_v_ff) {
  if (learner != LearnerKind::kLinear && learner != LearnerKind::kXgb)
    throw std::invalid_argument("ClassicalPredictor: learner must be kLinear or kXgb");
}

void ClassicalPredictor::fit(const SuiteDataset& ds) {
  PARAGRAPH_TIMED_SCOPE("baseline_fit");
  scaler_ = TargetScaler::fit(target_, max_v_ff_, SuiteDataset::pooled_targets(ds.train, target_));
  std::vector<std::vector<float>> x_rows;
  std::vector<float> y;
  std::size_t dim = 0;
  for (const Sample& s : ds.train) {
    const Matrix x = baseline_feature_matrix(s, target_);
    const auto raw = pooled_raw(s, target_);
    dim = x.cols();
    for (std::size_t i = 0; i < x.rows(); ++i) {
      if (!scaler_.in_range(raw[i])) continue;
      x_rows.emplace_back(x.row(i), x.row(i) + x.cols());
      y.push_back(scaler_.transform(raw[i]));
    }
  }
  Matrix xtrain(x_rows.size(), dim);
  for (std::size_t i = 0; i < x_rows.size(); ++i)
    for (std::size_t c = 0; c < dim; ++c) xtrain(i, c) = x_rows[i][c];
  if (learner_ == LearnerKind::kLinear) {
    regressor_ = std::make_unique<baselines::LinearRegression>();
  } else {
    regressor_ = std::make_unique<baselines::Gbrt>();
  }
  regressor_->fit(xtrain, y);
}

std::vector<float> ClassicalPredictor::predict_all(const Sample& sample) const {
  PARAGRAPH_TIMED_SCOPE("baseline_predict");
  if (regressor_ == nullptr) throw std::logic_error("ClassicalPredictor: predict before fit");
  const Matrix x = baseline_feature_matrix(sample, target_);
  const auto pred = regressor_->predict(x);
  std::vector<float> out;
  out.reserve(pred.size());
  for (const float p : pred) out.push_back(scaler_.inverse(p));
  return out;
}

namespace {

EvalResult run_classical(const LearnerConfig& config, const SuiteDataset& ds) {
  // Scaling mirrors the GNN path so the comparison is apples-to-apples.
  ClassicalPredictor predictor(config.learner, config.target, config.max_v_ff);
  predictor.fit(ds);
  const TargetScaler& scaler = predictor.scaler();
  EvalResult result;
  for (const Sample& s : ds.test) {
    const auto raw = pooled_raw(s, config.target);
    const auto pred = predictor.predict_all(s);
    CircuitPrediction cp;
    cp.name = s.name;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (!scaler.in_range(raw[i])) continue;
      cp.truth.push_back(raw[i]);
      cp.pred.push_back(pred[i]);
    }
    result.circuits.push_back(std::move(cp));
  }
  return result;
}

}  // namespace

EvalResult train_and_evaluate(const LearnerConfig& config, const SuiteDataset& ds) {
  if (config.learner == LearnerKind::kLinear || config.learner == LearnerKind::kXgb)
    return run_classical(config, ds);

  PredictorConfig pc;
  pc.model = gnn_kind(config.learner);
  pc.target = config.target;
  pc.max_v_ff = config.max_v_ff;
  pc.epochs = config.epochs;
  pc.seed = config.seed;
  pc.embed_dim = config.embed_dim;
  pc.num_layers = config.num_layers;
  GnnPredictor predictor(pc);
  predictor.train(ds);
  return predictor.evaluate(ds, ds.test);
}

}  // namespace paragraph::core
