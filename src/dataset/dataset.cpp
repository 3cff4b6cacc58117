#include "dataset/dataset.h"

#include <cmath>
#include <stdexcept>

#include "layout/annotator.h"
#include "obs/log.h"
#include "obs/profile.h"
#include "util/bytes.h"

namespace paragraph::dataset {

using circuit::Netlist;
using graph::HeteroGraph;
using graph::NodeType;

const char* target_name(TargetKind t) {
  switch (t) {
    case TargetKind::kCap: return "CAP";
    case TargetKind::kLde1: return "LDE1";
    case TargetKind::kLde2: return "LDE2";
    case TargetKind::kLde3: return "LDE3";
    case TargetKind::kLde4: return "LDE4";
    case TargetKind::kLde5: return "LDE5";
    case TargetKind::kLde6: return "LDE6";
    case TargetKind::kLde7: return "LDE7";
    case TargetKind::kLde8: return "LDE8";
    case TargetKind::kSourceArea: return "SA";
    case TargetKind::kDrainArea: return "DA";
    case TargetKind::kSourcePerimeter: return "SP";
    case TargetKind::kDrainPerimeter: return "DP";
    case TargetKind::kRes: return "RES";
  }
  return "unknown";
}

const std::vector<TargetKind>& all_targets() {
  static const std::vector<TargetKind> v = {
      TargetKind::kCap,        TargetKind::kLde1,          TargetKind::kLde2,
      TargetKind::kLde3,       TargetKind::kLde4,          TargetKind::kLde5,
      TargetKind::kLde6,       TargetKind::kLde7,          TargetKind::kLde8,
      TargetKind::kSourceArea, TargetKind::kDrainArea,     TargetKind::kSourcePerimeter,
      TargetKind::kDrainPerimeter, TargetKind::kRes};
  return v;
}

const std::vector<TargetKind>& device_targets() {
  static const std::vector<TargetKind> v(all_targets().begin() + 1, all_targets().end() - 1);
  return v;
}

const std::vector<NodeType>& target_node_types(TargetKind t) {
  static const std::vector<NodeType> net_types = {NodeType::kNet};
  static const std::vector<NodeType> mos_types = {NodeType::kTransistor,
                                                  NodeType::kTransistorThick};
  return (t == TargetKind::kCap || t == TargetKind::kRes) ? net_types : mos_types;
}

std::vector<float> extract_targets(const Netlist& nl, const HeteroGraph& g, NodeType type,
                                   TargetKind target) {
  const auto& origins = g.origins(type);
  std::vector<float> out;
  out.reserve(origins.size());
  if (target == TargetKind::kCap || target == TargetKind::kRes) {
    if (type != NodeType::kNet)
      throw std::invalid_argument("extract_targets: CAP/RES live on net nodes");
    for (const auto nid : origins) {
      if (target == TargetKind::kCap) {
        const auto& cap = nl.net(nid).ground_truth_cap;
        if (!cap.has_value())
          throw std::logic_error(
              "extract_targets: net lacks ground-truth cap (run annotate_layout)");
        out.push_back(static_cast<float>(*cap * 1e15));  // farad -> fF
      } else {
        const auto& res = nl.net(nid).ground_truth_res;
        if (!res.has_value())
          throw std::logic_error(
              "extract_targets: net lacks ground-truth res (run annotate_layout)");
        out.push_back(static_cast<float>(*res));  // ohm
      }
    }
    return out;
  }
  if (type != NodeType::kTransistor && type != NodeType::kTransistorThick)
    throw std::invalid_argument("extract_targets: device parameters live on transistor nodes");
  for (const auto did : origins) {
    const auto& lay = nl.device(did).layout;
    if (!lay.has_value())
      throw std::logic_error("extract_targets: transistor lacks layout (run annotate_layout)");
    double v = 0.0;
    switch (target) {
      case TargetKind::kSourceArea: v = lay->source_area * 1e15; break;       // m^2 -> 1e3 nm^2
      case TargetKind::kDrainArea: v = lay->drain_area * 1e15; break;
      case TargetKind::kSourcePerimeter: v = lay->source_perimeter * 1e9; break;  // m -> nm
      case TargetKind::kDrainPerimeter: v = lay->drain_perimeter * 1e9; break;
      default: {
        const auto idx = static_cast<std::size_t>(target) - static_cast<std::size_t>(TargetKind::kLde1);
        v = lay->lde[idx] * 1e9;  // m -> nm
        break;
      }
    }
    out.push_back(static_cast<float>(v));
  }
  return out;
}

void FeatureNormalizer::fit(const std::vector<const HeteroGraph*>& graphs) {
  for (std::size_t ti = 0; ti < graph::kNumNodeTypes; ++ti) {
    const auto t = static_cast<NodeType>(ti);
    const std::size_t dim = graph::feature_dim(t);
    std::vector<double> sum(dim, 0.0), sum2(dim, 0.0);
    std::size_t count = 0;
    for (const HeteroGraph* g : graphs) {
      const nn::Matrix& f = g->features(t);
      for (std::size_t r = 0; r < f.rows(); ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
          const double v = std::log1p(static_cast<double>(f(r, c)));
          sum[c] += v;
          sum2[c] += v * v;
        }
        ++count;
      }
    }
    Stats& st = stats_[ti];
    st.mean.assign(dim, 0.0f);
    st.stdev.assign(dim, 1.0f);
    if (count > 0) {
      for (std::size_t c = 0; c < dim; ++c) {
        const double m = sum[c] / static_cast<double>(count);
        const double var = std::max(sum2[c] / static_cast<double>(count) - m * m, 1e-12);
        st.mean[c] = static_cast<float>(m);
        st.stdev[c] = static_cast<float>(std::sqrt(var));
      }
    }
  }
  fitted_ = true;
}

nn::Matrix FeatureNormalizer::apply(const HeteroGraph& g, NodeType t) const {
  if (!fitted_) throw std::logic_error("FeatureNormalizer::apply before fit");
  const Stats& st = stats_[static_cast<std::size_t>(t)];
  nn::Matrix f = g.features(t);
  for (std::size_t r = 0; r < f.rows(); ++r) {
    for (std::size_t c = 0; c < f.cols(); ++c) {
      const float v = std::log1p(f(r, c));
      f(r, c) = (v - st.mean[c]) / (st.stdev[c] > 1e-6f ? st.stdev[c] : 1.0f);
    }
  }
  return f;
}

std::array<FeatureNormalizer::TypeStats, graph::kNumNodeTypes> FeatureNormalizer::state() const {
  std::array<TypeStats, graph::kNumNodeTypes> out;
  if (!fitted_) return out;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t)
    out[t] = TypeStats{stats_[t].mean, stats_[t].stdev};
  return out;
}

FeatureNormalizer FeatureNormalizer::from_state(
    const std::array<TypeStats, graph::kNumNodeTypes>& s) {
  FeatureNormalizer n;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    n.stats_[t].mean = s[t].mean;
    n.stats_[t].stdev = s[t].stdev;
    if (!s[t].mean.empty()) n.fitted_ = true;
  }
  return n;
}

std::uint64_t FeatureNormalizer::fingerprint() const {
  util::ByteWriter w;
  w.pod(static_cast<char>(fitted_ ? 1 : 0));
  for (const Stats& st : stats_) {
    for (const float v : st.mean) w.pod(v);
    for (const float v : st.stdev) w.pod(v);
  }
  return util::fnv1a64(w.view());
}

const std::string& node_name(const Sample& s, NodeType type, std::size_t local) {
  const std::int32_t origin = s.graph.origin(type, local);
  if (type == NodeType::kNet) return s.netlist.net(static_cast<circuit::NetId>(origin)).name;
  return s.netlist.device(static_cast<circuit::DeviceId>(origin)).name;
}

Sample make_sample(Netlist nl) {
  PARAGRAPH_TIMED_SCOPE("sample");
  Sample s;
  s.name = nl.name();
  {
    PARAGRAPH_TIMED_SCOPE("graph_build");
    s.graph = graph::build_graph(nl);
  }
  for (const TargetKind t : all_targets()) {
    auto& per_type = s.targets[static_cast<std::size_t>(t)];
    for (const NodeType nt : target_node_types(t))
      per_type.push_back(extract_targets(nl, s.graph, nt, t));
  }
  s.netlist = std::move(nl);
  return s;
}

std::vector<float> SuiteDataset::pooled_targets(const std::vector<Sample>& samples,
                                                TargetKind t) {
  std::vector<float> out;
  for (const Sample& s : samples)
    for (const auto& vec : s.targets[static_cast<std::size_t>(t)])
      out.insert(out.end(), vec.begin(), vec.end());
  return out;
}

SuiteDataset build_dataset(std::uint64_t seed, double scale) {
  PARAGRAPH_TIMED_SCOPE("dataset_build");
  circuitgen::Suite suite;
  {
    PARAGRAPH_TIMED_SCOPE("generate_suite");
    suite = circuitgen::build_paper_suite(seed, scale);
  }
  return build_dataset_from_suite(std::move(suite), seed ^ 0x1234567);
}

SuiteDataset build_dataset_from_suite(circuitgen::Suite suite, std::uint64_t layout_seed) {
  PARAGRAPH_TIMED_SCOPE("dataset_from_suite");
  SuiteDataset ds;
  std::uint64_t k = 0;
  for (auto& nl : suite.train) {
    {
      PARAGRAPH_TIMED_SCOPE("annotate_layout");
      layout::annotate_layout(nl, layout_seed + 1000 + k++);
    }
    ds.train.push_back(make_sample(std::move(nl)));
  }
  for (auto& nl : suite.test) {
    {
      PARAGRAPH_TIMED_SCOPE("annotate_layout");
      layout::annotate_layout(nl, layout_seed + 2000 + k++);
    }
    ds.test.push_back(make_sample(std::move(nl)));
  }
  std::vector<const HeteroGraph*> train_graphs;
  for (const Sample& s : ds.train) train_graphs.push_back(&s.graph);
  {
    PARAGRAPH_TIMED_SCOPE("fit_normalizer");
    ds.normalizer.fit(train_graphs);
  }
  if (obs::Logger::instance().should_log(obs::LogLevel::kDebug)) {
    std::size_t nodes = 0, edges = 0;
    for (const Sample& s : ds.train) {
      nodes += s.graph.total_nodes();
      edges += s.graph.total_edges();
    }
    obs::log_debug("dataset", "built",
              {{"train_circuits", ds.train.size()},
               {"test_circuits", ds.test.size()},
               {"train_nodes", nodes},
               {"train_edges", edges}});
  }
  return ds;
}

}  // namespace paragraph::dataset
