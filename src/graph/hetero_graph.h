// Heterogeneous circuit graph (paper Section II-B).
//
// Node types: one per device category plus `net`. Edge types are directed
// (net -> device_terminal and device_terminal -> net) so a relation exists
// for every (device type, terminal role, direction) triple; this is what
// lets ParaGraph distinguish a gate connection from a source connection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "nn/graph_ops.h"
#include "nn/matrix.h"

namespace paragraph::graph {

enum class NodeType : std::uint8_t {
  kNet,
  kTransistor,
  kTransistorThick,
  kResistor,
  kCapacitor,
  kDiode,
  kBjt,
};
constexpr std::size_t kNumNodeTypes = 7;

const char* node_type_name(NodeType t);

// Input feature dimension per node type (Table II).
std::size_t feature_dim(NodeType t);

// Terminal relation classes used for edge typing. Resistor and capacitor
// terminals are electrically symmetric, so they collapse to one relation.
enum class Relation : std::uint8_t {
  kGate,
  kSource,
  kDrain,
  kRcTerm,    // resistor/capacitor terminal
  kAnode,
  kCathode,
  kCollector,
  kBase,
  kEmitter,
};

const char* relation_name(Relation r);

// A directed edge type: all edges from `src_type` nodes to `dst_type` nodes
// via terminal relation `relation`. Exactly one of src/dst is kNet.
struct EdgeTypeInfo {
  NodeType src_type;
  NodeType dst_type;
  Relation relation;
  std::string name;  // e.g. "net->transistor.gate"
};

// The fixed registry of all edge types in canonical order.
const std::vector<EdgeTypeInfo>& edge_type_registry();
// Index into the registry; throws if the triple is not registered.
std::size_t edge_type_index(NodeType src, NodeType dst, Relation rel);

// Edges of one type, stored sorted by destination with a CSR segment index
// (one segment per destination node) for O(E) attention softmax.
struct TypedEdges {
  std::size_t type_index = 0;  // into edge_type_registry()
  std::vector<std::int32_t> src;  // local node index within src_type
  std::vector<std::int32_t> dst;  // local node index within dst_type; ascending
  nn::SegmentIndex dst_segments;  // num_segments == #nodes of dst_type

  std::size_t num_edges() const { return src.size(); }
};

class HeteroGraph {
 public:
  HeteroGraph();

  std::size_t num_nodes(NodeType t) const {
    return node_origin_[static_cast<std::size_t>(t)].size();
  }
  std::size_t total_nodes() const;
  std::size_t total_edges() const;

  // Raw (unnormalised) input features, one row per node of the type.
  const nn::Matrix& features(NodeType t) const {
    return features_[static_cast<std::size_t>(t)];
  }

  // Maps a local node index back to the netlist object: NetId for kNet,
  // DeviceId otherwise.
  std::int32_t origin(NodeType t, std::size_t local) const {
    return node_origin_[static_cast<std::size_t>(t)].at(local);
  }
  const std::vector<std::int32_t>& origins(NodeType t) const {
    return node_origin_[static_cast<std::size_t>(t)];
  }

  // All edge-type blocks that have at least one edge.
  const std::vector<TypedEdges>& edges() const { return edges_; }

  // Construction API (used by the builder and by tests).
  void set_nodes(NodeType t, std::vector<std::int32_t> origin, nn::Matrix features);
  // Edges may be passed unsorted; they are sorted by dst and indexed.
  void add_edges(std::size_t type_index, std::vector<std::int32_t> src,
                 std::vector<std::int32_t> dst);

  // Consistency checks (indices in range, CSR well-formed). Throws on error.
  void validate() const;

 private:
  std::vector<std::vector<std::int32_t>> node_origin_;  // per node type
  std::vector<nn::Matrix> features_;                    // per node type
  std::vector<TypedEdges> edges_;
};

// Converts a netlist to its heterogeneous graph with Table II features.
// Supply nets produce no node; terminals tied to supply produce no edge.
// Transistor bulk terminals are never mapped (they are supply-tied).
HeteroGraph build_graph(const circuit::Netlist& nl);

}  // namespace paragraph::graph
