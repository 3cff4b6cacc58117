#include "graph/hetero_graph.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace paragraph::graph {

using circuit::Device;
using circuit::DeviceKind;
using circuit::Netlist;
using circuit::Terminal;

const char* node_type_name(NodeType t) {
  switch (t) {
    case NodeType::kNet: return "net";
    case NodeType::kTransistor: return "transistor";
    case NodeType::kTransistorThick: return "transistor_thick";
    case NodeType::kResistor: return "resistor";
    case NodeType::kCapacitor: return "capacitor";
    case NodeType::kDiode: return "dio";
    case NodeType::kBjt: return "bjt";
  }
  return "unknown";
}

std::size_t feature_dim(NodeType t) {
  switch (t) {
    case NodeType::kNet: return 1;              // fanout N
    case NodeType::kTransistor: return 4;       // L, NF, NFIN, MULTI
    case NodeType::kTransistorThick: return 4;  // L, NF, NFIN, MULTI
    case NodeType::kResistor: return 1;         // L
    case NodeType::kCapacitor: return 1;        // MULTI
    case NodeType::kDiode: return 1;            // NF
    case NodeType::kBjt: return 1;              // constant 1
  }
  throw std::logic_error("feature_dim: unknown node type");
}

const char* relation_name(Relation r) {
  switch (r) {
    case Relation::kGate: return "gate";
    case Relation::kSource: return "source";
    case Relation::kDrain: return "drain";
    case Relation::kRcTerm: return "term";
    case Relation::kAnode: return "anode";
    case Relation::kCathode: return "cathode";
    case Relation::kCollector: return "collector";
    case Relation::kBase: return "base";
    case Relation::kEmitter: return "emitter";
  }
  return "unknown";
}

namespace {

std::vector<EdgeTypeInfo> make_registry() {
  std::vector<EdgeTypeInfo> reg;
  auto both_dirs = [&reg](NodeType dev, Relation rel) {
    const std::string dev_term =
        std::string(node_type_name(dev)) + "." + relation_name(rel);
    reg.push_back({NodeType::kNet, dev, rel, "net->" + dev_term});
    reg.push_back({dev, NodeType::kNet, rel, dev_term + "->net"});
  };
  for (const NodeType t : {NodeType::kTransistor, NodeType::kTransistorThick}) {
    both_dirs(t, Relation::kGate);
    both_dirs(t, Relation::kSource);
    both_dirs(t, Relation::kDrain);
  }
  both_dirs(NodeType::kResistor, Relation::kRcTerm);
  both_dirs(NodeType::kCapacitor, Relation::kRcTerm);
  both_dirs(NodeType::kDiode, Relation::kAnode);
  both_dirs(NodeType::kDiode, Relation::kCathode);
  both_dirs(NodeType::kBjt, Relation::kCollector);
  both_dirs(NodeType::kBjt, Relation::kBase);
  both_dirs(NodeType::kBjt, Relation::kEmitter);
  return reg;
}

}  // namespace

const std::vector<EdgeTypeInfo>& edge_type_registry() {
  static const std::vector<EdgeTypeInfo> reg = make_registry();
  return reg;
}

std::size_t edge_type_index(NodeType src, NodeType dst, Relation rel) {
  const auto& reg = edge_type_registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    if (reg[i].src_type == src && reg[i].dst_type == dst && reg[i].relation == rel) return i;
  }
  throw std::invalid_argument("edge_type_index: unregistered edge type");
}

HeteroGraph::HeteroGraph() : node_origin_(kNumNodeTypes), features_(kNumNodeTypes) {}

std::size_t HeteroGraph::total_nodes() const {
  std::size_t n = 0;
  for (const auto& v : node_origin_) n += v.size();
  return n;
}

std::size_t HeteroGraph::total_edges() const {
  std::size_t n = 0;
  for (const auto& e : edges_) n += e.num_edges();
  return n;
}

void HeteroGraph::set_nodes(NodeType t, std::vector<std::int32_t> origin, nn::Matrix features) {
  if (origin.size() != features.rows())
    throw std::invalid_argument("HeteroGraph::set_nodes: origin/feature row mismatch");
  if (features.rows() > 0 && features.cols() != feature_dim(t))
    throw std::invalid_argument("HeteroGraph::set_nodes: wrong feature dim for type");
  node_origin_[static_cast<std::size_t>(t)] = std::move(origin);
  features_[static_cast<std::size_t>(t)] = std::move(features);
}

void HeteroGraph::add_edges(std::size_t type_index, std::vector<std::int32_t> src,
                            std::vector<std::int32_t> dst) {
  if (src.size() != dst.size())
    throw std::invalid_argument("HeteroGraph::add_edges: src/dst size mismatch");
  if (src.empty()) return;
  const EdgeTypeInfo& info = edge_type_registry().at(type_index);
  const std::size_t n_dst = num_nodes(info.dst_type);

  // Sort edges by destination (stable on source order for determinism).
  std::vector<std::size_t> order(src.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return dst[a] < dst[b]; });

  TypedEdges te;
  te.type_index = type_index;
  te.src.reserve(src.size());
  te.dst.reserve(dst.size());
  for (const std::size_t k : order) {
    te.src.push_back(src[k]);
    te.dst.push_back(dst[k]);
  }
  te.dst_segments.offsets.assign(n_dst + 1, 0);
  for (const auto d : te.dst) {
    if (d < 0 || static_cast<std::size_t>(d) >= n_dst)
      throw std::out_of_range("HeteroGraph::add_edges: dst index out of range");
    ++te.dst_segments.offsets[static_cast<std::size_t>(d) + 1];
  }
  for (std::size_t i = 1; i < te.dst_segments.offsets.size(); ++i)
    te.dst_segments.offsets[i] += te.dst_segments.offsets[i - 1];
  edges_.push_back(std::move(te));
}

void HeteroGraph::validate() const {
  for (const TypedEdges& te : edges_) {
    const EdgeTypeInfo& info = edge_type_registry().at(te.type_index);
    const std::size_t n_src = num_nodes(info.src_type);
    const std::size_t n_dst = num_nodes(info.dst_type);
    if (te.src.size() != te.dst.size())
      throw std::logic_error("HeteroGraph::validate: ragged edge arrays");
    for (const auto s : te.src)
      if (s < 0 || static_cast<std::size_t>(s) >= n_src)
        throw std::logic_error("HeteroGraph::validate: src out of range");
    std::int32_t prev = -1;
    for (const auto d : te.dst) {
      if (d < 0 || static_cast<std::size_t>(d) >= n_dst)
        throw std::logic_error("HeteroGraph::validate: dst out of range");
      if (d < prev) throw std::logic_error("HeteroGraph::validate: dst not sorted");
      prev = d;
    }
    if (te.dst_segments.num_segments() != n_dst)
      throw std::logic_error("HeteroGraph::validate: segment count mismatch");
    if (te.dst_segments.num_elements() != te.num_edges())
      throw std::logic_error("HeteroGraph::validate: segment coverage mismatch");
  }
}

namespace {

NodeType node_type_of(DeviceKind k) {
  switch (k) {
    case DeviceKind::kNmos:
    case DeviceKind::kPmos: return NodeType::kTransistor;
    case DeviceKind::kNmosThick:
    case DeviceKind::kPmosThick: return NodeType::kTransistorThick;
    case DeviceKind::kResistor: return NodeType::kResistor;
    case DeviceKind::kCapacitor: return NodeType::kCapacitor;
    case DeviceKind::kDiode: return NodeType::kDiode;
    case DeviceKind::kBjt: return NodeType::kBjt;
  }
  throw std::logic_error("node_type_of: unknown device kind");
}

// Relation for a device terminal, or nullopt for terminals that never map
// to edges (transistor bulk).
std::optional<Relation> relation_of(Terminal t) {
  switch (t) {
    case Terminal::kGate: return Relation::kGate;
    case Terminal::kSource: return Relation::kSource;
    case Terminal::kDrain: return Relation::kDrain;
    case Terminal::kBulk: return std::nullopt;
    case Terminal::kPos:
    case Terminal::kNeg: return Relation::kRcTerm;
    case Terminal::kAnode: return Relation::kAnode;
    case Terminal::kCathode: return Relation::kCathode;
    case Terminal::kCollector: return Relation::kCollector;
    case Terminal::kBase: return Relation::kBase;
    case Terminal::kEmitter: return Relation::kEmitter;
  }
  throw std::logic_error("relation_of: unknown terminal");
}

// Table II feature row for a device. Lengths are expressed in nanometres so
// every feature lands in a sane numeric range before normalisation.
void fill_device_features(const Device& d, float* row) {
  const auto& p = d.params;
  switch (node_type_of(d.kind)) {
    case NodeType::kTransistor:
    case NodeType::kTransistorThick:
      row[0] = static_cast<float>(p.length * 1e9);
      row[1] = static_cast<float>(p.num_fingers);
      row[2] = static_cast<float>(p.num_fins);
      row[3] = static_cast<float>(p.multiplier);
      break;
    case NodeType::kResistor: row[0] = static_cast<float>(p.length * 1e9); break;
    case NodeType::kCapacitor: row[0] = static_cast<float>(p.multiplier); break;
    case NodeType::kDiode: row[0] = static_cast<float>(p.num_fingers); break;
    case NodeType::kBjt: row[0] = 1.0f; break;
    case NodeType::kNet: throw std::logic_error("fill_device_features: net is not a device");
  }
}

}  // namespace

HeteroGraph build_graph(const Netlist& nl) {
  HeteroGraph g;

  // --- nodes ---
  // Net nodes: every non-supply net.
  std::vector<std::int32_t> net_local(nl.num_nets(), -1);
  {
    std::vector<std::int32_t> origin;
    const auto fanout = nl.net_fanout();
    std::vector<float> feats;
    for (circuit::NetId id = 0; static_cast<std::size_t>(id) < nl.num_nets(); ++id) {
      if (nl.net(id).is_supply) continue;
      net_local[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(origin.size());
      origin.push_back(id);
      feats.push_back(static_cast<float>(fanout[static_cast<std::size_t>(id)]));
    }
    nn::Matrix f(origin.size(), 1, std::move(feats));
    g.set_nodes(NodeType::kNet, std::move(origin), std::move(f));
  }

  // Device nodes, grouped per node type.
  std::vector<std::int32_t> device_local(nl.num_devices(), -1);
  for (std::size_t ti = 1; ti < kNumNodeTypes; ++ti) {  // skip kNet (index 0)
    const auto t = static_cast<NodeType>(ti);
    std::vector<std::int32_t> origin;
    for (circuit::DeviceId id = 0; static_cast<std::size_t>(id) < nl.num_devices(); ++id) {
      if (node_type_of(nl.device(id).kind) != t) continue;
      device_local[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(origin.size());
      origin.push_back(id);
    }
    nn::Matrix f(origin.size(), feature_dim(t), 0.0f);
    for (std::size_t r = 0; r < origin.size(); ++r)
      fill_device_features(nl.device(origin[r]), f.row(r));
    g.set_nodes(t, std::move(origin), std::move(f));
  }

  // --- edges, bucketed per edge type ---
  const auto& reg = edge_type_registry();
  std::vector<std::vector<std::int32_t>> srcs(reg.size());
  std::vector<std::vector<std::int32_t>> dsts(reg.size());
  for (circuit::DeviceId id = 0; static_cast<std::size_t>(id) < nl.num_devices(); ++id) {
    const Device& d = nl.device(id);
    const NodeType dev_type = node_type_of(d.kind);
    const auto& terms = circuit::terminals_for(d.kind);
    const std::int32_t dev_idx = device_local[static_cast<std::size_t>(id)];
    for (std::size_t k = 0; k < terms.size(); ++k) {
      const auto rel = relation_of(terms[k]);
      if (!rel.has_value()) continue;  // bulk
      const std::int32_t net_idx = net_local[static_cast<std::size_t>(d.conns[k])];
      if (net_idx < 0) continue;  // supply net
      const std::size_t fwd = edge_type_index(NodeType::kNet, dev_type, *rel);
      const std::size_t bwd = edge_type_index(dev_type, NodeType::kNet, *rel);
      srcs[fwd].push_back(net_idx);
      dsts[fwd].push_back(dev_idx);
      srcs[bwd].push_back(dev_idx);
      dsts[bwd].push_back(net_idx);
    }
  }
  for (std::size_t e = 0; e < reg.size(); ++e)
    g.add_edges(e, std::move(srcs[e]), std::move(dsts[e]));

  g.validate();
  return g;
}

}  // namespace paragraph::graph
