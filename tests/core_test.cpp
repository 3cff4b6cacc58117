#include <gtest/gtest.h>
#include <cmath>
#include <cstdio>
#include <string>

#include "circuit/spice_parser.h"
#include "core/ensemble.h"
#include "core/learners.h"
#include "core/predictor.h"
#include "core/serialize.h"
#include "gnn/plan_cache.h"
#include "graph/hetero_graph.h"
#include "util/errors.h"

namespace paragraph::core {
namespace {

dataset::SuiteDataset& tiny_dataset() {
  static dataset::SuiteDataset ds = dataset::build_dataset(21, 0.05);
  return ds;
}

// A sample as `paragraph predict` and the serve daemon build it: graph and
// netlist only, no truth vectors.
dataset::Sample untargeted_sample(const std::string& deck) {
  dataset::Sample s;
  s.netlist = circuit::parse_spice_string(deck);
  s.name = s.netlist.name();
  s.graph = graph::build_graph(s.netlist);
  return s;
}

// Position of (type_slot, node_index) in predict_all's (slot, node) order.
std::size_t predict_all_position(const dataset::Sample& s, dataset::TargetKind target,
                                 std::int32_t slot, std::int32_t node) {
  const auto& types = dataset::target_node_types(target);
  std::size_t pos = static_cast<std::size_t>(node);
  for (std::int32_t k = 0; k < slot; ++k)
    pos += s.graph.num_nodes(types[static_cast<std::size_t>(k)]);
  return pos;
}

TEST(TargetScaler, CapScalesByMaxV) {
  const TargetScaler s = TargetScaler::for_cap(10.0);
  EXPECT_FLOAT_EQ(s.transform(5.0f), 0.5f);
  EXPECT_FLOAT_EQ(s.inverse(0.5f), 5.0f);
  EXPECT_TRUE(s.in_range(10.0f));
  EXPECT_FALSE(s.in_range(10.5f));
}

TEST(TargetScaler, LogZscoreRoundTrip) {
  const TargetScaler s = TargetScaler::fit_log_zscore({1.0f, 10.0f, 100.0f, 1000.0f});
  // Geometric centre maps to ~0 in transformed space.
  EXPECT_NEAR(s.transform(std::sqrt(10.0f * 100.0f)), 0.0f, 1e-5f);
  for (const float v : {0.5f, 7.0f, 300.0f, 5000.0f})
    EXPECT_NEAR(s.inverse(s.transform(v)) / v, 1.0f, 1e-4f);
  EXPECT_TRUE(s.in_range(1e9f));
}

TEST(TargetScaler, StateRoundTrip) {
  const TargetScaler s = TargetScaler::fit_log_zscore({2.0f, 20.0f, 200.0f});
  const TargetScaler t = TargetScaler::from_state(s.state());
  EXPECT_FLOAT_EQ(s.transform(42.0f), t.transform(42.0f));
  EXPECT_FLOAT_EQ(s.inverse(1.3f), t.inverse(1.3f));
}

TEST(TargetScaler, ZscoreRoundTrip) {
  const TargetScaler s = TargetScaler::fit_zscore({1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_NEAR(s.transform(2.5f), 0.0f, 1e-6f);
  EXPECT_NEAR(s.inverse(s.transform(3.7f)), 3.7f, 1e-5f);
  EXPECT_TRUE(s.in_range(1e9f));  // z-score never filters
}

TEST(PredictorConfig, FcLayerDefaultsFollowPaper) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  EXPECT_EQ(pc.effective_fc_layers(), 4u);
  pc.target = dataset::TargetKind::kSourceArea;
  EXPECT_EQ(pc.effective_fc_layers(), 2u);
  pc.fc_layers = 3;
  EXPECT_EQ(pc.effective_fc_layers(), 3u);
}

TEST(GnnPredictor, TrainsAndEvaluatesCap) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 10.0;
  pc.epochs = 30;
  pc.num_layers = 3;
  pc.embed_dim = 16;
  GnnPredictor p(pc);
  const auto losses = p.train(tiny_dataset());
  ASSERT_EQ(losses.size(), 30u);
  EXPECT_LT(losses.back(), losses.front());
  const EvalResult res = p.evaluate(tiny_dataset(), tiny_dataset().test);
  EXPECT_EQ(res.circuits.size(), 4u);
  const auto m = res.pooled();
  EXPECT_GT(m.count, 0u);
  EXPECT_GT(m.r2, -1.0);
}

TEST(GnnPredictor, PredictAllCoversEveryNetNode) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 3;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor p(pc);
  p.train(tiny_dataset());
  const auto& sample = tiny_dataset().test[0];
  const auto preds = p.predict_all(tiny_dataset(), sample);
  EXPECT_EQ(preds.size(), sample.graph.num_nodes(graph::NodeType::kNet));
}

TEST(GnnPredictor, DeviceTargetCoversBothTransistorTypes) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kDrainArea;
  pc.epochs = 3;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor p(pc);
  p.train(tiny_dataset());
  const auto& sample = tiny_dataset().train[1];  // t2 has thick devices
  const auto preds = p.predict_all(tiny_dataset(), sample);
  EXPECT_EQ(preds.size(), sample.graph.num_nodes(graph::NodeType::kTransistor) +
                              sample.graph.num_nodes(graph::NodeType::kTransistorThick));
}

TEST(GnnPredictor, EmbeddingsHaveConfiguredDim) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 2;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor p(pc);
  p.train(tiny_dataset());
  const nn::Matrix emb =
      p.embeddings(tiny_dataset(), tiny_dataset().test[0], graph::NodeType::kNet);
  EXPECT_EQ(emb.cols(), 8u);
  EXPECT_EQ(emb.rows(), tiny_dataset().test[0].graph.num_nodes(graph::NodeType::kNet));
}

TEST(GnnPredictor, MaxVFiltersTraining) {
  // With an absurdly low max_v almost nothing is in range -> eval set small.
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 1e7;
  pc.epochs = 1;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor wide(pc);
  wide.train(tiny_dataset());
  const auto wide_n = wide.evaluate(tiny_dataset(), tiny_dataset().test).pooled().count;
  pc.max_v_ff = 1.0;
  GnnPredictor narrow(pc);
  narrow.train(tiny_dataset());
  const auto narrow_n = narrow.evaluate(tiny_dataset(), tiny_dataset().test).pooled().count;
  EXPECT_LT(narrow_n, wide_n);
}

TEST(GnnPredictor, TrainingIsDeterministicInSeed) {
  auto run = [] {
    PredictorConfig pc;
    pc.target = dataset::TargetKind::kCap;
    pc.max_v_ff = 100.0;
    pc.epochs = 5;
    pc.num_layers = 2;
    pc.embed_dim = 8;
    pc.seed = 777;
    GnnPredictor p(pc);
    return p.train(tiny_dataset());
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(GnnPredictor, EvaluateMatchesPredictAllBitForBit) {
  // evaluate() keeps the in-range subset of the very vector predict_all()
  // returns; every kept prediction must sit at its (slot, node) position.
  const auto& ds = tiny_dataset();
  for (const auto target : {dataset::TargetKind::kCap, dataset::TargetKind::kSourceArea}) {
    PredictorConfig pc;
    pc.target = target;
    pc.max_v_ff = 10.0;  // CAP: some nets fall outside the range
    pc.epochs = 3;
    pc.num_layers = 2;
    pc.embed_dim = 8;
    GnnPredictor p(pc);
    p.train(ds);
    std::size_t checked = 0, later_slots = 0;
    for (const auto* samples : {&ds.train, &ds.test}) {
      const EvalResult res = p.evaluate(ds, *samples);
      ASSERT_EQ(res.circuits.size(), samples->size());
      for (std::size_t c = 0; c < samples->size(); ++c) {
        const dataset::Sample& s = (*samples)[c];
        const CircuitPrediction& cp = res.circuits[c];
        const std::vector<float> all = p.predict_all(ds, s);
        ASSERT_EQ(cp.pred.size(), cp.type_slot.size());
        ASSERT_EQ(cp.pred.size(), cp.node_index.size());
        for (std::size_t k = 0; k < cp.pred.size(); ++k) {
          const std::size_t pos =
              predict_all_position(s, target, cp.type_slot[k], cp.node_index[k]);
          ASSERT_LT(pos, all.size());
          EXPECT_EQ(cp.pred[k], all[pos]) << dataset::target_name(target) << " " << s.name;
          ++checked;
          if (cp.type_slot[k] > 0) ++later_slots;
        }
      }
    }
    EXPECT_GT(checked, 0u) << dataset::target_name(target);
    if (target == dataset::TargetKind::kSourceArea) {
      EXPECT_GT(later_slots, 0u) << "no thick-oxide transistor was checked";
    }
  }
}

TEST(GnnPredictor, DeviceTargetPredictsDecksWithoutThickDevices) {
  // SA spans thin and thick-oxide transistors. A deck with thin ones only
  // has no thick embedding, and its sample carries no truth vectors: the
  // prediction still holds one value per thin transistor.
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kSourceArea;
  pc.epochs = 2;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor p(pc);
  p.train(tiny_dataset());

  const dataset::Sample inv = untargeted_sample(
      "* one inverter\nMn out in vss vss nmos L=16n W=32n\n"
      "Mp out in vdd vdd pmos L=16n W=64n\nC1 out vss 1f\n");
  ASSERT_EQ(inv.graph.num_nodes(graph::NodeType::kTransistorThick), 0u);
  const std::vector<float> flat = p.predict_all(tiny_dataset(), inv);
  EXPECT_EQ(flat.size(), inv.graph.num_nodes(graph::NodeType::kTransistor));

  // The same through the PlanCache, on a hierarchical thin-only deck: a
  // 16-transistor chain template instantiated six times.
  std::string deck = "* thin-only chains\n.subckt chain n0 n8\n";
  for (int i = 1; i <= 8; ++i) {
    const std::string in = "n" + std::to_string(i - 1), out = "n" + std::to_string(i);
    deck += "Mn" + std::to_string(i) + " " + out + " " + in + " vss vss nmos L=16n W=32n\n";
    deck += "Mp" + std::to_string(i) + " " + out + " " + in + " vdd vdd pmos L=16n W=64n\n";
  }
  deck += ".ends\n";
  for (int k = 0; k < 6; ++k)
    deck += "X" + std::to_string(k) + " s" + std::to_string(k) + " s" + std::to_string(k + 1) +
            " chain\n";
  const dataset::Sample hier = untargeted_sample(deck + "C1 s6 vss 1f\n");
  ASSERT_EQ(hier.graph.num_nodes(graph::NodeType::kTransistorThick), 0u);
  const std::vector<float> plain = p.predict_all(tiny_dataset(), hier);
  ASSERT_EQ(plain.size(), hier.graph.num_nodes(graph::NodeType::kTransistor));
  gnn::PlanCache cache;
  const std::vector<float> cached = p.predict_all(tiny_dataset(), hier, cache);
  ASSERT_GT(cache.num_entries(), 0u) << "hierarchy was not cached";
  ASSERT_EQ(cached.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) EXPECT_EQ(cached[i], plain[i]) << "node " << i;
}

TEST(CapEnsemble, ValidatesConfig) {
  EnsembleConfig cfg;
  cfg.max_vs_ff = {10.0};
  EXPECT_THROW(CapEnsemble{cfg}, std::invalid_argument);
  cfg.max_vs_ff = {10.0, 1.0};
  EXPECT_THROW(CapEnsemble{cfg}, std::invalid_argument);
}

TEST(CapEnsemble, Algorithm2PrefersHigherRangeModels) {
  EnsembleConfig cfg;
  cfg.max_vs_ff = {1.0, 10.0, 100.0};
  cfg.base.epochs = 15;
  cfg.base.num_layers = 2;
  cfg.base.embed_dim = 8;
  CapEnsemble ens(cfg);
  ens.train(tiny_dataset());
  EXPECT_EQ(ens.num_models(), 3u);
  const auto& sample = tiny_dataset().test[0];
  const auto ens_pred = ens.predict(tiny_dataset(), sample);
  const auto low_pred = ens.model(0).predict_all(tiny_dataset(), sample);
  const auto mid_pred = ens.model(1).predict_all(tiny_dataset(), sample);
  const auto high_pred = ens.model(2).predict_all(tiny_dataset(), sample);
  ASSERT_EQ(ens_pred.size(), low_pred.size());
  for (std::size_t i = 0; i < ens_pred.size(); ++i) {
    // Algorithm 2: highest-range model whose prediction exceeds the next-
    // lower max_v wins; otherwise fall through toward M1.
    if (high_pred[i] > 10.0) {
      EXPECT_FLOAT_EQ(ens_pred[i], high_pred[i]);
    } else if (mid_pred[i] > 1.0) {
      EXPECT_FLOAT_EQ(ens_pred[i], mid_pred[i]);
    } else {
      EXPECT_FLOAT_EQ(ens_pred[i], low_pred[i]);
    }
  }
}

// Algorithm 2 normalises every member with one set of statistics, so a
// manifest whose surviving members were fitted on different data is
// corrupt; dropping the odd member out leaves a consistent ensemble.
TEST(CapEnsemble, LoadRejectsMembersWithDifferentNormalisers) {
  EnsembleConfig cfg;
  cfg.max_vs_ff = {1.0, 10.0, 100.0};
  cfg.base.epochs = 1;
  cfg.base.num_layers = 1;
  cfg.base.embed_dim = 4;
  CapEnsemble ens(cfg);
  ens.train(tiny_dataset());
  const std::string path = ::testing::TempDir() + "core_test_normalisers.bin";
  ens.save(path);
  const CapEnsemble loaded = CapEnsemble::load(path);
  for (std::size_t i = 0; i < loaded.num_models(); ++i)
    EXPECT_TRUE(loaded.model(i).normalizer() == tiny_dataset().normalizer) << "member " << i;

  // Member 1 refitted on the test split alone.
  const std::string m1 = path + ".m1";
  GnnPredictor odd = load_predictor(m1);
  std::vector<const graph::HeteroGraph*> graphs;
  for (const auto& s : tiny_dataset().test) graphs.push_back(&s.graph);
  dataset::FeatureNormalizer refit;
  refit.fit(graphs);
  ASSERT_FALSE(refit == tiny_dataset().normalizer);
  odd.set_normalizer(refit);
  save_predictor(odd, m1);
  EXPECT_THROW(CapEnsemble::load(path), util::CorruptArtifactError);

  std::remove(m1.c_str());
  const CapEnsemble survivors = CapEnsemble::load(path);
  EXPECT_TRUE(survivors.degraded());
  EXPECT_EQ(survivors.num_models(), 2u);
  for (const char* suffix : {"", ".m0", ".m2"}) std::remove((path + suffix).c_str());
}

TEST(Learners, NamesAndList) {
  EXPECT_EQ(fig6_learners().size(), 7u);
  EXPECT_STREQ(learner_name(LearnerKind::kXgb), "XGB");
  EXPECT_STREQ(learner_name(LearnerKind::kParaGraph), "ParaGraph");
}

TEST(Learners, ClassicalBaselinesRun) {
  for (const auto lk : {LearnerKind::kLinear, LearnerKind::kXgb}) {
    LearnerConfig cfg;
    cfg.learner = lk;
    cfg.target = dataset::TargetKind::kCap;
    cfg.max_v_ff = 10.0;
    const EvalResult res = train_and_evaluate(cfg, tiny_dataset());
    EXPECT_EQ(res.circuits.size(), 4u);
    EXPECT_GT(res.pooled().count, 0u);
  }
}

TEST(Learners, ClassicalDeviceTargetUsesTypeFlag) {
  LearnerConfig cfg;
  cfg.learner = LearnerKind::kXgb;
  cfg.target = dataset::TargetKind::kSourcePerimeter;
  const EvalResult res = train_and_evaluate(cfg, tiny_dataset());
  std::size_t expect = 0;
  for (const auto& s : tiny_dataset().test)
    expect += s.graph.num_nodes(graph::NodeType::kTransistor) +
              s.graph.num_nodes(graph::NodeType::kTransistorThick);
  EXPECT_EQ(res.pooled().count, expect);
}

TEST(EvalResultTest, PooledConcatenatesCircuits) {
  EvalResult r;
  r.circuits.push_back({"a", {1.0f, 2.0f}, {1.0f, 2.0f}});
  r.circuits.push_back({"b", {3.0f}, {3.0f}});
  EXPECT_EQ(r.pooled().count, 3u);
  EXPECT_DOUBLE_EQ(r.pooled().r2, 1.0);
  EXPECT_DOUBLE_EQ(r.circuits[0].metrics().mae, 0.0);
}

}  // namespace
}  // namespace paragraph::core
