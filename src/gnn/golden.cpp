#include "gnn/golden.h"

#include <cmath>
#include <istream>
#include <iterator>
#include <ostream>

#include "circuitgen/generator.h"
#include "core/serialize.h"
#include "nn/ops.h"
#include "util/bytes.h"

namespace paragraph::gnn {

namespace {

constexpr std::uint32_t kGoldenMagic = 0x50474744;  // "PGGD"
constexpr std::uint32_t kGoldenVersion = 1;

}  // namespace

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = [] {
    std::vector<GoldenCase> v;
    const auto add = [&v](ModelKind k, std::size_t heads, const char* stem) {
      v.push_back({k, /*embed_dim=*/16, /*num_layers=*/3, heads, /*model_seed=*/42, stem});
    };
    add(ModelKind::kGcn, 1, "gcn");
    add(ModelKind::kGraphSage, 1, "graphsage");
    add(ModelKind::kRgcn, 1, "rgcn");
    add(ModelKind::kGat, 1, "gat");
    add(ModelKind::kParaGraph, 1, "paragraph");
    add(ModelKind::kParaGraphNoAttention, 1, "paragraph_noattn");
    add(ModelKind::kParaGraphNoEdgeTypes, 1, "paragraph_noedgetypes");
    add(ModelKind::kParaGraphNoConcat, 1, "paragraph_noconcat");
    add(ModelKind::kParaGraph, 2, "paragraph_heads2");
    return v;
  }();
  return cases;
}

graph::HeteroGraph golden_graph() {
  // A mixed analog/digital circuit so every node type and a wide spread of
  // edge types (gate/source/drain, RC terminals, diode, BJT) is exercised.
  circuitgen::CircuitSpec spec;
  spec.name = "golden";
  spec.seed = 7;
  spec.opamps = 1;
  spec.mirrors = 1;
  spec.bandgaps = 1;  // brings in diodes/BJTs
  spec.rc_filters = 1;
  spec.glue_gates = 6;
  spec.dffs = 1;
  spec.level_shifters = 1;  // thick-gate devices
  spec.esd_pads = 1;
  return graph::build_graph(circuitgen::generate_circuit(spec));
}

GoldenResult run_golden_case(const GoldenCase& c) {
  const graph::HeteroGraph g = golden_graph();
  const HomoView homo = build_homo_view(g);

  util::Rng rng(c.model_seed);
  auto model = make_model(c.kind, c.embed_dim, c.num_layers, rng, c.num_heads);

  GraphBatch batch;
  batch.graph = &g;
  batch.homo = &homo;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto nt = static_cast<graph::NodeType>(t);
    if (g.num_nodes(nt) == 0) continue;
    // Per-column max-abs normalisation stands in for the dataset
    // normaliser: keeps activations O(1) so the 1e-5 max-abs-diff
    // equivalence criterion is meaningful.
    nn::Matrix f = g.features(nt);
    for (std::size_t j = 0; j < f.cols(); ++j) {
      float mx = 1.0f;
      for (std::size_t i = 0; i < f.rows(); ++i) mx = std::max(mx, std::abs(f(i, j)));
      for (std::size_t i = 0; i < f.rows(); ++i) f(i, j) /= mx;
    }
    batch.features[t] = nn::Tensor(std::move(f));
  }

  const TypeTensors emb = model->embed(batch);

  // Deterministic scalar loss touching every defined embedding so backward
  // reaches every parameter: mean squared activation per type, summed.
  std::vector<nn::Tensor> losses;
  GoldenResult r;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    if (!emb[t].defined()) {
      r.embeddings.emplace_back();
      continue;
    }
    r.embeddings.push_back(emb[t].value());
    losses.push_back(nn::mse_loss(emb[t], nn::Matrix(emb[t].rows(), emb[t].cols(), 0.0f)));
  }
  nn::Tensor loss = nn::sum_tensors(losses);

  auto params = model->parameters();
  for (auto& p : params) p.zero_grad();
  loss.backward();
  r.loss = static_cast<double>(loss.item());
  for (const auto& p : params) r.param_grads.push_back(p.grad());
  return r;
}

void write_golden(std::ostream& os, const GoldenResult& r) {
  util::ByteWriter w;
  w.pod(kGoldenMagic);
  w.pod(kGoldenVersion);
  w.pod(r.loss);
  core::write_matrices(w, r.embeddings);
  core::write_matrices(w, r.param_grads);
  os.write(w.view().data(), static_cast<std::streamsize>(w.view().size()));
}

GoldenResult read_golden(std::istream& is) {
  const std::string bytes{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  util::ByteReader r(bytes, "read_golden");
  if (r.pod<std::uint32_t>("magic") != kGoldenMagic) r.corrupt("not a golden fixture");
  if (r.pod<std::uint32_t>("version") != kGoldenVersion) r.corrupt("unsupported fixture version");
  GoldenResult g;
  g.loss = r.pod<double>("loss");
  g.embeddings = core::read_matrices(r);
  g.param_grads = core::read_matrices(r);
  return g;
}

}  // namespace paragraph::gnn
