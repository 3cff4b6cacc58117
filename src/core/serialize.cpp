#include "core/serialize.h"

#include <array>
#include <cmath>
#include <cstdint>

#include "obs/sketch.h"
#include "util/atomic_file.h"
#include "util/faultinject.h"

namespace paragraph::core {

namespace {

constexpr std::uint32_t kMagic = 0x50477230;  // "PGr0"
// Version history (this build reads version 6 only; any other version is
// rejected as CorruptArtifactError):
//   1: initial format
//   2: adds PredictorConfig::scale after the seed (the dataset-generation
//      scale used at training time)
//   3: adds PredictorConfig::batch_size and train_threads after the scale
//      (the graph-level data-parallel batch and the runtime thread count
//      the model was trained with)
//   4: appends an FNV-1a-64 checksum of the whole payload as the trailing
//      8 bytes, and the loader rejects trailing garbage. Field layout is
//      unchanged from v3.
//   5: appends the training-set feature-distribution sketches (drift
//      reference, eval/drift.h) after the parameter data and before the
//      checksum. Everything up to the parameter data keeps its v3/v4
//      byte offsets.
//   6: inserts the feature normaliser block (a matrix block of per node
//      type 1 x feature_dim mean and stdev rows) between the parameter
//      data and the sketch block, so a loaded model normalises its inputs
//      without regenerating its training suite. Every earlier offset holds.
constexpr std::uint32_t kVersion = 6;

// Sane maxima for decoded dims/counts. A corrupt or adversarial file must
// not be able to drive multi-gigabyte allocations before the checks
// against the freshly constructed model run; these bounds comfortably
// contain every real configuration (paper: embed_dim 32, 5 layers). The
// matrix bounds hold for checkpoints too, which share the matrix block.
constexpr std::uint64_t kMaxEmbedDim = 1024;
constexpr std::uint64_t kMaxLayers = 64;
constexpr std::uint64_t kMaxParams = 1 << 20;
constexpr std::uint64_t kMaxMatrixDim = 1 << 24;
constexpr std::uint64_t kMaxBatch = 1 << 16;
constexpr std::uint64_t kMaxThreads = 1 << 16;
constexpr std::uint64_t kMaxSketches = 4096;
constexpr std::uint64_t kMaxSketchBins = 1024;
constexpr std::uint64_t kMaxSketchName = 256;
constexpr std::uint32_t kMaxModelKind = static_cast<std::uint32_t>(gnn::ModelKind::kParaGraphNoConcat);
constexpr std::uint32_t kMaxTargetKind = static_cast<std::uint32_t>(dataset::kNumTargets) - 1;

double finite_or_corrupt(double v, util::ByteReader& r, const char* what) {
  if (!std::isfinite(v)) r.corrupt(std::string("non-finite ") + what);
  return v;
}

// The normaliser block: per node type t, matrices 2t (mean) and 2t + 1
// (stdev), each 1 x feature_dim(t), or all 1 x 0 when unfitted.
std::vector<nn::Matrix> normalizer_block(const dataset::FeatureNormalizer& norm) {
  std::vector<nn::Matrix> ms;
  for (const auto& ts : norm.state()) {
    ms.emplace_back(1, ts.mean.size(), ts.mean);
    ms.emplace_back(1, ts.stdev.size(), ts.stdev);
  }
  return ms;
}

dataset::FeatureNormalizer read_normalizer_block(util::ByteReader& r) {
  const std::vector<nn::Matrix> ms = read_matrices(r);
  if (ms.size() != 2 * graph::kNumNodeTypes)
    r.corrupt("normalizer block has " + std::to_string(ms.size()) + " matrices, expected " +
              std::to_string(2 * graph::kNumNodeTypes));
  const bool fitted = ms[0].size() != 0;
  std::array<dataset::FeatureNormalizer::TypeStats, graph::kNumNodeTypes> state;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    // FeatureNormalizer::apply indexes both rows by feature column.
    const std::size_t dim = fitted ? graph::feature_dim(static_cast<graph::NodeType>(t)) : 0;
    const nn::Matrix& mean = ms[2 * t];
    const nn::Matrix& stdev = ms[2 * t + 1];
    for (const nn::Matrix* m : {&mean, &stdev})
      if (m->rows() != 1 || m->cols() != dim)
        r.corrupt("normalizer row for node type " + std::to_string(t) + " is " +
                  std::to_string(m->rows()) + "x" + std::to_string(m->cols()) + ", expected 1x" +
                  std::to_string(dim));
    for (std::size_t c = 0; c < dim; ++c) {
      if (!std::isfinite(mean.data()[c])) r.corrupt("non-finite normalizer mean");
      if (!(std::isfinite(stdev.data()[c]) && stdev.data()[c] > 0.0f))
        r.corrupt("non-finite or non-positive normalizer stdev");
    }
    state[t] = {std::vector<float>(mean.data(), mean.data() + dim),
                std::vector<float>(stdev.data(), stdev.data() + dim)};
  }
  return dataset::FeatureNormalizer::from_state(state);
}

}  // namespace

void write_matrices(util::ByteWriter& w, std::span<const nn::Matrix> ms) {
  w.pod(static_cast<std::uint64_t>(ms.size()));
  for (const nn::Matrix& m : ms) {
    w.pod(static_cast<std::uint64_t>(m.rows()));
    w.pod(static_cast<std::uint64_t>(m.cols()));
    w.bytes({reinterpret_cast<const char*>(m.data()), m.size() * sizeof(float)});
  }
}

std::vector<nn::Matrix> read_matrices(util::ByteReader& r) {
  const auto count =
      r.bounded(r.pod<std::uint64_t>("matrix count"), 0, kMaxParams, "matrix count");
  std::vector<nn::Matrix> ms;
  ms.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto rows = static_cast<std::size_t>(
        r.bounded(r.pod<std::uint64_t>("matrix rows"), 0, kMaxMatrixDim, "matrix rows"));
    const auto cols = static_cast<std::size_t>(
        r.bounded(r.pod<std::uint64_t>("matrix cols"), 0, kMaxMatrixDim, "matrix cols"));
    // bytes() length-checks before anything is allocated: a corrupt shape
    // cannot drive an allocation larger than the bytes actually present.
    const std::string_view data = r.bytes(rows * cols * sizeof(float), "matrix data");
    std::vector<float> values(rows * cols);
    // An empty matrix (an untrained model's normaliser rows) has a null
    // data(), which memcpy must not be handed even for zero bytes.
    if (!values.empty()) std::memcpy(values.data(), data.data(), data.size());
    ms.emplace_back(rows, cols, std::move(values));
  }
  return ms;
}

std::string predictor_to_bytes(const GnnPredictor& predictor) {
  util::ByteWriter w;
  w.pod(kMagic);
  w.pod(kVersion);

  const PredictorConfig& c = predictor.config();
  w.pod(static_cast<std::uint32_t>(c.model));
  w.pod(static_cast<std::uint32_t>(c.target));
  w.pod(static_cast<std::uint64_t>(c.embed_dim));
  w.pod(static_cast<std::uint64_t>(c.num_layers));
  w.pod(static_cast<std::uint64_t>(c.fc_layers));
  w.pod(c.max_v_ff);
  w.pod(c.epochs);
  w.pod(c.learning_rate);
  w.pod(c.grad_clip);
  w.pod(c.lr_final_fraction);
  w.pod(c.seed);
  w.pod(c.scale);
  w.pod(static_cast<std::uint64_t>(c.batch_size));
  w.pod(static_cast<std::uint64_t>(c.train_threads));

  const TargetScaler::State s = predictor.scaler().state();
  w.pod(s.zscore);
  w.pod(s.log_space);
  w.pod(s.mean);
  w.pod(s.stdev);
  w.pod(s.max_v);

  std::vector<nn::Matrix> params;
  for (const auto& p : predictor.parameters()) params.push_back(p.value());
  write_matrices(w, params);
  write_matrices(w, normalizer_block(predictor.normalizer()));
  // Sketch block (drift reference). Placed after the parameter data and
  // the normaliser so everything before them keeps its historical offsets.
  const auto& sketches = predictor.feature_sketches();
  w.pod(static_cast<std::uint64_t>(sketches.size()));
  for (const auto& sk : sketches) {
    const obs::FeatureSketch::State st = sk.state();
    w.pod(static_cast<std::uint64_t>(st.name.size()));
    w.bytes(st.name);
    w.pod(st.count);
    w.pod(st.mean);
    w.pod(st.m2);
    w.pod(st.lo);
    w.pod(st.hi);
    w.pod(st.underflow);
    w.pod(st.overflow);
    w.pod(static_cast<std::uint64_t>(st.bins.size()));
    for (const std::uint64_t b : st.bins) w.pod(b);
  }
  w.append_checksum();
  return w.take();
}

GnnPredictor predictor_from_bytes(std::string_view bytes, const std::string& context) {
  util::ByteReader r(bytes, context);
  if (r.pod<std::uint32_t>("magic") != kMagic) r.corrupt("not a ParaGraph model file (bad magic)");
  const auto version = r.pod<std::uint32_t>("version");
  if (version != kVersion)
    r.corrupt("unsupported format version " + std::to_string(version) + " (this build reads " +
              std::to_string(kVersion) + ")");

  // A trailing checksum covers everything before it; verify it before the
  // rest so every later parse error means "malformed", not "bit rot".
  r.strip_checksum();

  if (util::fault::should_fail("model.load")) r.corrupt("fault injected (model.load)");

  PredictorConfig c;
  c.model = static_cast<gnn::ModelKind>(
      r.bounded(r.pod<std::uint32_t>("model kind"), 0, kMaxModelKind, "model kind"));
  c.target = static_cast<dataset::TargetKind>(
      r.bounded(r.pod<std::uint32_t>("target kind"), 0, kMaxTargetKind, "target kind"));
  c.embed_dim = static_cast<std::size_t>(
      r.bounded(r.pod<std::uint64_t>("embed_dim"), 1, kMaxEmbedDim, "embed_dim"));
  c.num_layers = static_cast<std::size_t>(
      r.bounded(r.pod<std::uint64_t>("num_layers"), 1, kMaxLayers, "num_layers"));
  c.fc_layers = static_cast<std::size_t>(
      r.bounded(r.pod<std::uint64_t>("fc_layers"), 0, kMaxLayers, "fc_layers"));
  c.max_v_ff = finite_or_corrupt(r.pod<double>("max_v_ff"), r, "max_v_ff");
  c.epochs = r.pod<int>("epochs");
  c.learning_rate =
      static_cast<float>(finite_or_corrupt(r.pod<float>("learning_rate"), r, "learning_rate"));
  c.grad_clip = static_cast<float>(finite_or_corrupt(r.pod<float>("grad_clip"), r, "grad_clip"));
  c.lr_final_fraction = static_cast<float>(
      finite_or_corrupt(r.pod<float>("lr_final_fraction"), r, "lr_final_fraction"));
  c.seed = r.pod<std::uint64_t>("seed");
  c.scale = finite_or_corrupt(r.pod<double>("scale"), r, "scale");
  c.batch_size = static_cast<std::size_t>(
      r.bounded(r.pod<std::uint64_t>("batch_size"), 1, kMaxBatch, "batch_size"));
  c.train_threads = static_cast<std::size_t>(
      r.bounded(r.pod<std::uint64_t>("train_threads"), 0, kMaxThreads, "train_threads"));

  TargetScaler::State s;
  s.zscore = r.pod<bool>("scaler.zscore");
  s.log_space = r.pod<bool>("scaler.log_space");
  s.mean = finite_or_corrupt(r.pod<double>("scaler.mean"), r, "scaler.mean");
  s.stdev = finite_or_corrupt(r.pod<double>("scaler.stdev"), r, "scaler.stdev");
  if (s.zscore && !(s.stdev > 0.0)) r.corrupt("non-positive scaler.stdev");
  s.max_v = finite_or_corrupt(r.pod<double>("scaler.max_v"), r, "scaler.max_v");

  GnnPredictor predictor(c);
  predictor.set_scaler(TargetScaler::from_state(s));

  auto params = predictor.parameters();
  std::vector<nn::Matrix> values = read_matrices(r);
  if (values.size() != params.size())
    r.corrupt("parameter count mismatch (file has " + std::to_string(values.size()) +
              ", model expects " + std::to_string(params.size()) + ")");
  for (std::size_t i = 0; i < params.size(); ++i) {
    nn::Matrix& m = params[i].mutable_value();
    if (values[i].rows() != m.rows() || values[i].cols() != m.cols())
      r.corrupt("parameter shape mismatch (file has " + std::to_string(values[i].rows()) + "x" +
                std::to_string(values[i].cols()) + ", model expects " + std::to_string(m.rows()) +
                "x" + std::to_string(m.cols()) + ")");
    m = std::move(values[i]);
  }
  predictor.set_normalizer(read_normalizer_block(r));
  // Sketch block: the drift reference the model was trained against.
  const auto num_sketches =
      r.bounded(r.pod<std::uint64_t>("sketch count"), 0, kMaxSketches, "sketch count");
  std::vector<obs::FeatureSketch> sketches;
  sketches.reserve(static_cast<std::size_t>(num_sketches));
  for (std::uint64_t i = 0; i < num_sketches; ++i) {
    obs::FeatureSketch::State st;
    const auto name_len = r.bounded(r.pod<std::uint64_t>("sketch name length"), 0,
                                    kMaxSketchName, "sketch name length");
    st.name = std::string(r.bytes(static_cast<std::size_t>(name_len), "sketch name"));
    st.count = r.pod<std::uint64_t>("sketch count field");
    st.mean = finite_or_corrupt(r.pod<double>("sketch mean"), r, "sketch mean");
    st.m2 = finite_or_corrupt(r.pod<double>("sketch m2"), r, "sketch m2");
    st.lo = finite_or_corrupt(r.pod<double>("sketch lo"), r, "sketch lo");
    st.hi = finite_or_corrupt(r.pod<double>("sketch hi"), r, "sketch hi");
    st.underflow = r.pod<std::uint64_t>("sketch underflow");
    st.overflow = r.pod<std::uint64_t>("sketch overflow");
    const auto nbins = r.bounded(r.pod<std::uint64_t>("sketch bin count"), 0, kMaxSketchBins,
                                 "sketch bin count");
    st.bins.resize(static_cast<std::size_t>(nbins));
    for (auto& b : st.bins) b = r.pod<std::uint64_t>("sketch bin");
    sketches.push_back(obs::FeatureSketch::from_state(std::move(st)));
  }
  predictor.set_feature_sketches(std::move(sketches));
  // The checksum covers the exact payload, so leftovers mean corruption.
  if (r.remaining() != 0)
    r.corrupt(std::to_string(r.remaining()) + " trailing bytes after parameter data");
  return predictor;
}

void save_predictor(const GnnPredictor& predictor, const std::string& path) {
  // Published with temp + fsync + rename, so a crash or full disk
  // mid-save leaves any previous model file intact.
  util::write_file_atomic(path, predictor_to_bytes(predictor));
}

GnnPredictor load_predictor(const std::string& path) {
  const std::string bytes = util::read_artifact_file(path, "load_predictor");
  return predictor_from_bytes(bytes, "load_predictor: '" + path + "'");
}

}  // namespace paragraph::core
