// Training/evaluation dataset assembly.
//
// Pairs each generated circuit with its heterogeneous graph, normalised
// input features, and the 13 regression targets of Table I (CAP on net
// nodes; SA/DA/SP/DP and LDE1..8 on transistor nodes). Feature and target
// statistics are fit on the training circuits only and applied to the test
// circuits, mirroring the paper's designer-recommended split.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "circuitgen/generator.h"
#include "graph/hetero_graph.h"

namespace paragraph::dataset {

enum class TargetKind : std::uint8_t {
  kCap,  // net parasitic capacitance [fF]
  kLde1,
  kLde2,
  kLde3,
  kLde4,
  kLde5,
  kLde6,
  kLde7,
  kLde8,
  kSourceArea,
  kDrainArea,
  kSourcePerimeter,
  kDrainPerimeter,
  // Extension beyond the paper (its stated future work): lumped net
  // parasitic resistance [ohm].
  kRes,
};
constexpr std::size_t kNumTargets = 14;

const char* target_name(TargetKind t);
// All 14 targets in canonical order (the paper's 13 plus kRes).
const std::vector<TargetKind>& all_targets();
// The device-parameter subset (LDE1..8, SA, DA, SP, DP).
const std::vector<TargetKind>& device_targets();

// Node types a target lives on: {kNet} for CAP, both transistor types
// otherwise.
const std::vector<graph::NodeType>& target_node_types(TargetKind t);

// Raw target values for every node of `type` in the graph, in display
// units: fF for CAP, nm for LDE/perimeters, 1e3 nm^2 for areas.
std::vector<float> extract_targets(const circuit::Netlist& nl, const graph::HeteroGraph& g,
                                   graph::NodeType type, TargetKind target);

// Per-node-type feature standardisation: log1p followed by z-scoring with
// statistics fit on the training set.
class FeatureNormalizer {
 public:
  void fit(const std::vector<const graph::HeteroGraph*>& graphs);
  // Returns a normalised copy of the graph's features for one node type.
  nn::Matrix apply(const graph::HeteroGraph& g, graph::NodeType t) const;
  bool fitted() const { return fitted_; }

  // Plain-data view for persistence (dataset/shards.h): per node type, the
  // fitted mean/stdev vectors (empty when unfitted).
  struct TypeStats {
    std::vector<float> mean;
    std::vector<float> stdev;
  };
  std::array<TypeStats, graph::kNumNodeTypes> state() const;
  static FeatureNormalizer from_state(const std::array<TypeStats, graph::kNumNodeTypes>& s);

  // Hash of the fitted statistics; changes whenever normalisation output
  // would. Used to key memoized embeddings (gnn::PlanCache).
  std::uint64_t fingerprint() const;

  bool operator==(const FeatureNormalizer&) const = default;

 private:
  struct Stats {
    std::vector<float> mean;
    std::vector<float> stdev;
    bool operator==(const Stats&) const = default;
  };
  std::array<Stats, graph::kNumNodeTypes> stats_{};
  bool fitted_ = false;
};

// One circuit ready for training/evaluation.
struct Sample {
  std::string name;
  circuit::Netlist netlist;
  graph::HeteroGraph graph;
  // Raw targets: indexed [target][node type index within target_node_types].
  std::array<std::vector<std::vector<float>>, kNumTargets> targets;

  const std::vector<float>& target_values(TargetKind t, std::size_t type_slot = 0) const {
    return targets[static_cast<std::size_t>(t)].at(type_slot);
  }
};

// Netlist name of node `local` of `type` (a net for kNet, a device
// otherwise), through the graph's origin mapping.
const std::string& node_name(const Sample& s, graph::NodeType type, std::size_t local);

struct SuiteDataset {
  std::vector<Sample> train;
  std::vector<Sample> test;
  FeatureNormalizer normalizer;

  // Pooled raw target values over a set of samples (for target scaling).
  static std::vector<float> pooled_targets(const std::vector<Sample>& samples, TargetKind t);
};

// Builds one Sample from an annotated netlist: graph construction plus
// target extraction. Deterministic in the netlist alone — the shard store
// relies on this to rebuild samples from persisted netlists.
Sample make_sample(circuit::Netlist nl);

// Full pipeline: generate suite -> annotate layout -> build graphs ->
// extract targets -> fit normaliser. Deterministic in `seed`.
SuiteDataset build_dataset(std::uint64_t seed, double scale = 1.0);

// Same pipeline for an externally supplied suite (e.g. custom circuits).
SuiteDataset build_dataset_from_suite(circuitgen::Suite suite, std::uint64_t layout_seed);

}  // namespace paragraph::dataset
