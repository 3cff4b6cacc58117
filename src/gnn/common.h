// Shared infrastructure for all GNN models.
//
// Every model (naive GCN/GraphSage/GAT, RGCN, ParaGraph) first applies a
// node-type-specific linear transform to map heterogeneous feature spaces
// into the common embedding space (Algorithm 1, lines 1-2; the paper notes
// the same transform had to be added to the naive baselines).
//
// The homogeneous baselines then ignore edge types: HomoView flattens the
// typed node blocks into one global index space with a merged edge list
// (plus a self-loop-augmented variant with GCN symmetric-normalisation
// coefficients).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "graph/hetero_graph.h"
#include "nn/graph_ops.h"
#include "nn/module.h"

namespace paragraph::gnn {

using TypeTensors = std::array<nn::Tensor, graph::kNumNodeTypes>;

// Flattened (type-blind) view of a HeteroGraph.
struct HomoView {
  std::size_t total_nodes = 0;
  std::array<std::size_t, graph::kNumNodeTypes> type_offset{};
  std::array<std::size_t, graph::kNumNodeTypes> type_count{};

  // All edges, global indices, sorted by destination.
  std::vector<std::int32_t> src;
  std::vector<std::int32_t> dst;
  nn::SegmentIndex dst_segments;
  std::vector<float> inv_in_degree;  // per node; 0 for isolated nodes

  // Self-loop-augmented edge list (sorted by destination, with segments)
  // and GCN coefficients 1/sqrt(d_i d_j) on the augmented graph. Used by
  // GCN (normalisation) and GAT (so attention can retain self features).
  std::vector<std::int32_t> sl_src;
  std::vector<std::int32_t> sl_dst;
  nn::SegmentIndex sl_dst_segments;
  std::vector<float> gcn_coeff;
};

HomoView build_homo_view(const graph::HeteroGraph& g);

// Per-edge-type attention statistics recorded during a forward pass
// (paper Section III: "Analyzing the learned attentional weights may also
// help model interpretability"). Entropy is averaged over destination
// segments with >= 2 incoming edges; low entropy = focused attention.
struct AttentionRecord {
  struct Entry {
    double mean_entropy = 0.0;  // nats
    double mean_max = 0.0;      // average of the per-segment max weight
    std::size_t segments = 0;
    std::size_t edges = 0;
  };
  // layers[l][edge type index] -> statistics for that relation at layer l.
  std::vector<std::map<std::size_t, Entry>> layers;
};

class GraphPlan;  // gnn/plan.h

// Everything a model needs for one circuit. Feature tensors are constant
// leaves (already normalised). `plan` is the preferred way to supply graph
// structure: built once per graph (gnn/plan.h) and reused across every
// forward. When it is null the model builds a transient plan from `graph`
// (and `homo`, for the homogeneous baselines) on each call.
struct GraphBatch {
  const graph::HeteroGraph* graph = nullptr;
  const HomoView* homo = nullptr;
  const GraphPlan* plan = nullptr;
  TypeTensors features;
  // When set, attention-based models append per-layer statistics here.
  AttentionRecord* attention_out = nullptr;
};

// Computes attention statistics for one relation's softmax output.
AttentionRecord::Entry summarize_attention(const nn::Matrix& alpha,
                                           const nn::SegmentIndex& segments);

// Per-node-type input projection into the common F-dimensional space.
class InputTransform : public nn::Module {
 public:
  InputTransform(std::size_t embed_dim, util::Rng& rng);

  // Projects each non-empty node type's features; empty types yield
  // undefined tensors (callers must check .defined()).
  TypeTensors forward(const GraphBatch& batch) const;

 private:
  std::vector<std::unique_ptr<nn::Linear>> per_type_;
};

// Per-node bitmask over edge_type_registry() indices: bit e is set when
// node i of `type` is an endpoint of at least one edge of type e. Used by
// the quality report to bucket prediction error by edge-type context
// (which terminal relations a net actually touches).
std::vector<std::uint64_t> incident_edge_type_masks(const graph::HeteroGraph& g,
                                                    graph::NodeType type);

}  // namespace paragraph::gnn
