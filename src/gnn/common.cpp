#include "gnn/common.h"

#include <cmath>
#include <numeric>

namespace paragraph::gnn {

using graph::HeteroGraph;
using graph::NodeType;
using nn::Tensor;

HomoView build_homo_view(const HeteroGraph& g) {
  HomoView v;
  std::size_t off = 0;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    v.type_offset[t] = off;
    v.type_count[t] = g.num_nodes(static_cast<NodeType>(t));
    off += v.type_count[t];
  }
  v.total_nodes = off;

  // Merge all typed edges into global indices.
  std::vector<std::int32_t> src;
  std::vector<std::int32_t> dst;
  for (const auto& te : g.edges()) {
    const auto& info = graph::edge_type_registry()[te.type_index];
    const auto so = static_cast<std::int32_t>(v.type_offset[static_cast<std::size_t>(info.src_type)]);
    const auto dofs = static_cast<std::int32_t>(v.type_offset[static_cast<std::size_t>(info.dst_type)]);
    for (std::size_t e = 0; e < te.num_edges(); ++e) {
      src.push_back(te.src[e] + so);
      dst.push_back(te.dst[e] + dofs);
    }
  }

  // Sort by destination.
  std::vector<std::size_t> order(src.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return dst[a] < dst[b]; });
  v.src.reserve(src.size());
  v.dst.reserve(dst.size());
  for (const std::size_t k : order) {
    v.src.push_back(src[k]);
    v.dst.push_back(dst[k]);
  }
  v.dst_segments.offsets.assign(v.total_nodes + 1, 0);
  for (const auto d : v.dst) ++v.dst_segments.offsets[static_cast<std::size_t>(d) + 1];
  for (std::size_t i = 1; i < v.dst_segments.offsets.size(); ++i)
    v.dst_segments.offsets[i] += v.dst_segments.offsets[i - 1];

  v.inv_in_degree.assign(v.total_nodes, 0.0f);
  for (std::size_t i = 0; i < v.total_nodes; ++i) {
    const auto deg = v.dst_segments.offsets[i + 1] - v.dst_segments.offsets[i];
    if (deg > 0) v.inv_in_degree[i] = 1.0f / static_cast<float>(deg);
  }

  // Self-loop-augmented list with symmetric GCN normalisation. The graph is
  // symmetric by construction (paired directed edges), so in-degree equals
  // out-degree. Kept destination-sorted with a segment index so GAT can run
  // its attention softmax over it.
  std::vector<float> deg(v.total_nodes, 1.0f);  // +1 self loop
  for (const auto d : v.dst) deg[static_cast<std::size_t>(d)] += 1.0f;
  std::vector<std::int32_t> sl_src = v.src;
  std::vector<std::int32_t> sl_dst = v.dst;
  for (std::size_t i = 0; i < v.total_nodes; ++i) {
    sl_src.push_back(static_cast<std::int32_t>(i));
    sl_dst.push_back(static_cast<std::int32_t>(i));
  }
  std::vector<std::size_t> sl_order(sl_src.size());
  std::iota(sl_order.begin(), sl_order.end(), 0);
  std::stable_sort(sl_order.begin(), sl_order.end(),
                   [&](std::size_t a, std::size_t b) { return sl_dst[a] < sl_dst[b]; });
  v.sl_src.reserve(sl_src.size());
  v.sl_dst.reserve(sl_dst.size());
  v.gcn_coeff.reserve(sl_src.size());
  for (const std::size_t k : sl_order) {
    v.sl_src.push_back(sl_src[k]);
    v.sl_dst.push_back(sl_dst[k]);
    v.gcn_coeff.push_back(1.0f / std::sqrt(deg[static_cast<std::size_t>(sl_src[k])] *
                                           deg[static_cast<std::size_t>(sl_dst[k])]));
  }
  v.sl_dst_segments.offsets.assign(v.total_nodes + 1, 0);
  for (const auto d : v.sl_dst) ++v.sl_dst_segments.offsets[static_cast<std::size_t>(d) + 1];
  for (std::size_t i = 1; i < v.sl_dst_segments.offsets.size(); ++i)
    v.sl_dst_segments.offsets[i] += v.sl_dst_segments.offsets[i - 1];
  return v;
}

InputTransform::InputTransform(std::size_t embed_dim, util::Rng& rng) {
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    per_type_.push_back(std::make_unique<nn::Linear>(
        graph::feature_dim(static_cast<NodeType>(t)), embed_dim, rng));
    register_module(per_type_.back().get());
  }
}

TypeTensors InputTransform::forward(const GraphBatch& batch) const {
  TypeTensors out;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const Tensor& f = batch.features[t];
    if (!f.defined() || f.rows() == 0) continue;
    out[t] = per_type_[t]->forward(f);
  }
  return out;
}

AttentionRecord::Entry summarize_attention(const nn::Matrix& alpha,
                                            const nn::SegmentIndex& segments) {
  AttentionRecord::Entry e;
  double entropy_sum = 0.0;
  double max_sum = 0.0;
  for (std::size_t s = 0; s < segments.num_segments(); ++s) {
    const auto begin = static_cast<std::size_t>(segments.offsets[s]);
    const auto end = static_cast<std::size_t>(segments.offsets[s + 1]);
    if (end - begin < 2) continue;  // trivial softmax over one edge
    double h = 0.0;
    double mx = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double a = std::max(static_cast<double>(alpha(i, 0)), 1e-12);
      h -= a * std::log(a);
      mx = std::max(mx, a);
    }
    entropy_sum += h;
    max_sum += mx;
    ++e.segments;
    e.edges += end - begin;
  }
  if (e.segments > 0) {
    e.mean_entropy = entropy_sum / static_cast<double>(e.segments);
    e.mean_max = max_sum / static_cast<double>(e.segments);
  }
  return e;
}

std::vector<std::uint64_t> incident_edge_type_masks(const graph::HeteroGraph& g,
                                                    graph::NodeType type) {
  std::vector<std::uint64_t> masks(g.num_nodes(type), 0);
  for (const graph::TypedEdges& te : g.edges()) {
    if (te.type_index >= 64) continue;  // registry is far smaller; belt and braces
    const graph::EdgeTypeInfo& info = graph::edge_type_registry()[te.type_index];
    const std::uint64_t bit = std::uint64_t{1} << te.type_index;
    if (info.src_type == type)
      for (const std::int32_t s : te.src) masks[static_cast<std::size_t>(s)] |= bit;
    if (info.dst_type == type)
      for (const std::int32_t d : te.dst) masks[static_cast<std::size_t>(d)] |= bit;
  }
  return masks;
}

}  // namespace paragraph::gnn
