#include <gtest/gtest.h>

#include "circuit/spice_parser.h"
#include "graph/hetero_graph.h"

namespace paragraph::graph {
namespace {

using circuit::Netlist;

Netlist inverter_netlist() {
  return circuit::parse_spice_string(R"(
Mn out in vss vss nmos L=16n NFIN=2 NF=1 M=1
Mp out in vdd vdd pmos L=20n NFIN=4 NF=2 M=1
)");
}

TEST(EdgeRegistry, CoversAllDeviceTerminals) {
  const auto& reg = edge_type_registry();
  // 2 transistor types x 3 terminals x 2 dirs + (res + cap) x 2
  // + diode 2 x 2 + bjt 3 x 2 = 12 + 4 + 4 + 6 = 26.
  EXPECT_EQ(reg.size(), 26u);
  for (const auto& info : reg) {
    const bool net_src = info.src_type == NodeType::kNet;
    const bool net_dst = info.dst_type == NodeType::kNet;
    EXPECT_TRUE(net_src != net_dst) << info.name;  // exactly one side is a net
  }
}

TEST(EdgeRegistry, LookupRoundTrip) {
  const auto& reg = edge_type_registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_EQ(edge_type_index(reg[i].src_type, reg[i].dst_type, reg[i].relation), i);
  }
  EXPECT_THROW(edge_type_index(NodeType::kNet, NodeType::kNet, Relation::kGate),
               std::invalid_argument);
}

TEST(BuildGraph, InverterMatchesPaperFig3) {
  // Fig 3: inverter -> 1 net node per signal net (in, out), 2 transistor
  // nodes, edges only for gate/drain terminals on signal nets (source and
  // bulk go to rails).
  const HeteroGraph g = build_graph(inverter_netlist());
  EXPECT_EQ(g.num_nodes(NodeType::kNet), 2u);
  EXPECT_EQ(g.num_nodes(NodeType::kTransistor), 2u);
  EXPECT_EQ(g.num_nodes(NodeType::kResistor), 0u);
  // Per transistor: gate + drain mapped, source/bulk dropped -> 2 edges x 2
  // directions x 2 devices = 8.
  EXPECT_EQ(g.total_edges(), 8u);
}

TEST(BuildGraph, FeatureValuesFollowTableII) {
  const HeteroGraph g = build_graph(inverter_netlist());
  const nn::Matrix& f = g.features(NodeType::kTransistor);
  ASSERT_EQ(f.rows(), 2u);
  ASSERT_EQ(f.cols(), 4u);
  // Row order follows device order: Mn then Mp.
  EXPECT_FLOAT_EQ(f(0, 0), 16.0f);  // L in nm
  EXPECT_FLOAT_EQ(f(0, 1), 1.0f);   // NF
  EXPECT_FLOAT_EQ(f(0, 2), 2.0f);   // NFIN
  EXPECT_FLOAT_EQ(f(0, 3), 1.0f);   // MULTI
  EXPECT_FLOAT_EQ(f(1, 0), 20.0f);
  EXPECT_FLOAT_EQ(f(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(f(1, 2), 4.0f);
}

TEST(BuildGraph, NetFanoutFeatureCountsAllTerminals) {
  const HeteroGraph g = build_graph(inverter_netlist());
  const nn::Matrix& f = g.features(NodeType::kNet);
  // "in" connects 2 gates; "out" 2 drains. Both have fanout 2.
  EXPECT_FLOAT_EQ(f(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(f(1, 0), 2.0f);
}

TEST(BuildGraph, SupplyNetsExcluded) {
  const HeteroGraph g = build_graph(inverter_netlist());
  for (const auto origin : g.origins(NodeType::kNet)) {
    EXPECT_FALSE(inverter_netlist().net(origin).is_supply);
  }
}

TEST(BuildGraph, EdgesComeInOppositePairs) {
  const Netlist nl = circuit::parse_spice_string(R"(
Mn out in mid vss nmos L=16n NFIN=2
R1 mid out 5k
C1 out vss 1f
D1 in mid dio
Q1 out in mid npn
)");
  const HeteroGraph g = build_graph(nl);
  // For every edge type block, the opposite-direction block has the same
  // number of edges.
  const auto& reg = edge_type_registry();
  for (const auto& te : g.edges()) {
    const auto& info = reg[te.type_index];
    const std::size_t opp = edge_type_index(info.dst_type, info.src_type, info.relation);
    std::size_t opp_count = 0;
    for (const auto& other : g.edges())
      if (other.type_index == opp) opp_count = other.num_edges();
    EXPECT_EQ(te.num_edges(), opp_count) << info.name;
  }
}

TEST(BuildGraph, AllDeviceKindsGetNodes) {
  const Netlist nl = circuit::parse_spice_string(R"(
Mn out in mid vss nmos L=16n NFIN=2
Mt out2 in mid vss nmos_thick L=150n NFIN=4
R1 mid out 5k
C1 out mid 1f
D1 in mid dio
Q1 out in mid npn
)");
  const HeteroGraph g = build_graph(nl);
  EXPECT_EQ(g.num_nodes(NodeType::kTransistor), 1u);
  EXPECT_EQ(g.num_nodes(NodeType::kTransistorThick), 1u);
  EXPECT_EQ(g.num_nodes(NodeType::kResistor), 1u);
  EXPECT_EQ(g.num_nodes(NodeType::kCapacitor), 1u);
  EXPECT_EQ(g.num_nodes(NodeType::kDiode), 1u);
  EXPECT_EQ(g.num_nodes(NodeType::kBjt), 1u);
  EXPECT_NO_THROW(g.validate());
}

TEST(BuildGraph, CsrSegmentsMatchEdges) {
  const Netlist nl = circuit::parse_spice_string(R"(
Mn1 out in1 vss vss nmos L=16n NFIN=2
Mn2 out in2 vss vss nmos L=16n NFIN=2
Mn3 out in3 vss vss nmos L=16n NFIN=2
)");
  const HeteroGraph g = build_graph(nl);
  // Find the transistor.drain -> net block: net "out" should have 3
  // incoming edges in one segment.
  const std::size_t want =
      edge_type_index(NodeType::kTransistor, NodeType::kNet, Relation::kDrain);
  bool found = false;
  for (const auto& te : g.edges()) {
    if (te.type_index != want) continue;
    found = true;
    EXPECT_EQ(te.num_edges(), 3u);
    EXPECT_EQ(te.dst_segments.num_segments(), g.num_nodes(NodeType::kNet));
    // All three edges land in the same destination segment.
    const auto d = te.dst[0];
    EXPECT_EQ(te.dst_segments.offsets[static_cast<std::size_t>(d) + 1] -
                  te.dst_segments.offsets[static_cast<std::size_t>(d)],
              3);
  }
  EXPECT_TRUE(found);
}

TEST(BuildGraph, TerminalOnSupplyProducesNoEdge) {
  // All terminals on rails: device node exists but no edges at all.
  const Netlist nl = circuit::parse_spice_string(
      "Mn vdd vss vss vss nmos L=16n NFIN=2\n");
  const HeteroGraph g = build_graph(nl);
  EXPECT_EQ(g.num_nodes(NodeType::kTransistor), 1u);
  EXPECT_EQ(g.total_edges(), 0u);
}

TEST(HeteroGraphClass, AddEdgesSortsByDestination) {
  HeteroGraph g;
  g.set_nodes(NodeType::kNet, {0, 1, 2}, nn::Matrix(3, 1, 1.0f));
  g.set_nodes(NodeType::kTransistor, {0, 1, 2}, nn::Matrix(3, 4, 1.0f));
  const std::size_t t = edge_type_index(NodeType::kNet, NodeType::kTransistor, Relation::kGate);
  g.add_edges(t, {0, 1, 2}, {2, 0, 1});
  const auto& te = g.edges().front();
  EXPECT_EQ(te.dst[0], 0);
  EXPECT_EQ(te.dst[1], 1);
  EXPECT_EQ(te.dst[2], 2);
  EXPECT_EQ(te.src[0], 1);  // source order follows the sort
  EXPECT_NO_THROW(g.validate());
}

TEST(HeteroGraphClass, Validation) {
  HeteroGraph g;
  g.set_nodes(NodeType::kNet, {0}, nn::Matrix(1, 1, 1.0f));
  g.set_nodes(NodeType::kTransistor, {0}, nn::Matrix(1, 4, 1.0f));
  const std::size_t t = edge_type_index(NodeType::kNet, NodeType::kTransistor, Relation::kGate);
  EXPECT_THROW(g.add_edges(t, {0}, {5}), std::out_of_range);
  EXPECT_THROW(g.add_edges(t, {0, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(g.set_nodes(NodeType::kNet, {0}, nn::Matrix(2, 1, 0.0f)), std::invalid_argument);
  EXPECT_THROW(g.set_nodes(NodeType::kNet, {0}, nn::Matrix(1, 3, 0.0f)), std::invalid_argument);
}

TEST(NodeTypes, FeatureDims) {
  EXPECT_EQ(feature_dim(NodeType::kNet), 1u);
  EXPECT_EQ(feature_dim(NodeType::kTransistor), 4u);
  EXPECT_EQ(feature_dim(NodeType::kTransistorThick), 4u);
  EXPECT_EQ(feature_dim(NodeType::kResistor), 1u);
  EXPECT_EQ(feature_dim(NodeType::kCapacitor), 1u);
  EXPECT_EQ(feature_dim(NodeType::kDiode), 1u);
  EXPECT_EQ(feature_dim(NodeType::kBjt), 1u);
}

}  // namespace
}  // namespace paragraph::graph
