// paragraph-shard-v1 round trips and the out-of-core training path.
//
// The contract under test: a packed-then-loaded sample is bit-identical
// to the in-memory original (netlist, graph features, targets), the LRU
// working set respects its byte budget, corrupt shards and hand-edited
// manifests are rejected with typed errors, and streamed train/evaluate
// produce the same floats as the in-memory overloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "dataset/dataset.h"
#include "dataset/shards.h"
#include "eval/drift.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/errors.h"

namespace paragraph {
namespace {

namespace fs = std::filesystem;

double counter(const char* name) {
  return static_cast<double>(obs::MetricsRegistry::instance().counter(name).value());
}

void expect_matrices_equal(const nn::Matrix& a, const nn::Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.data()[i], b.data()[i]) << what;
}

class ShardsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new dataset::SuiteDataset(dataset::build_dataset(11, 0.05));
    dir_ = (fs::temp_directory_path() / "paragraph_shards_fixture").string();
    fs::remove_all(dir_);
    const dataset::ShardWriteResult r = dataset::write_shards(*ds_, dir_);
    ASSERT_EQ(r.files, ds_->train.size() + ds_->test.size());
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
    fs::remove_all(dir_);
  }

  static dataset::SuiteDataset* ds_;
  static std::string dir_;
};

dataset::SuiteDataset* ShardsTest::ds_ = nullptr;
std::string ShardsTest::dir_;

TEST_F(ShardsTest, RoundTripIsBitwiseExact) {
  dataset::ShardStore store(dir_);
  ASSERT_EQ(store.num_train(), ds_->train.size());
  ASSERT_EQ(store.num_test(), ds_->test.size());
  EXPECT_EQ(store.normalizer().fingerprint(), ds_->normalizer.fingerprint());

  for (std::size_t i = 0; i < store.num_train(); ++i) {
    const dataset::Sample& orig = ds_->train[i];
    EXPECT_EQ(store.train_name(i), orig.name);
    const auto loaded = store.train(i);
    ASSERT_EQ(loaded->name, orig.name);
    ASSERT_EQ(loaded->netlist.num_nets(), orig.netlist.num_nets());
    ASSERT_EQ(loaded->netlist.num_devices(), orig.netlist.num_devices());
    ASSERT_EQ(loaded->netlist.instances().size(), orig.netlist.instances().size());
    for (std::size_t d = 0; d < orig.netlist.num_devices(); ++d) {
      const auto& od = orig.netlist.device(static_cast<circuit::DeviceId>(d));
      const auto& ld = loaded->netlist.device(static_cast<circuit::DeviceId>(d));
      ASSERT_EQ(ld.name, od.name);
      ASSERT_EQ(ld.conns, od.conns);
      ASSERT_EQ(ld.instance_path, od.instance_path);
      ASSERT_EQ(ld.layout.has_value(), od.layout.has_value());
      if (od.layout) {
        ASSERT_EQ(ld.layout->source_area, od.layout->source_area);
      }
    }
    for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
      const auto nt = static_cast<graph::NodeType>(t);
      ASSERT_EQ(loaded->graph.num_nodes(nt), orig.graph.num_nodes(nt));
      expect_matrices_equal(loaded->graph.features(nt), orig.graph.features(nt), "features");
    }
    for (std::size_t t = 0; t < dataset::kNumTargets; ++t) {
      ASSERT_EQ(loaded->targets[t].size(), orig.targets[t].size());
      for (std::size_t slot = 0; slot < orig.targets[t].size(); ++slot)
        ASSERT_EQ(loaded->targets[t][slot], orig.targets[t][slot]);
    }
  }
}

TEST_F(ShardsTest, WorkingSetRespectsBudgetAndCountersAccount) {
  // Budget sized to roughly one materialised sample: the store must keep
  // serving every load while never retaining more than the cap (plus the
  // always-kept newest entry).
  std::size_t max_bytes = 0;
  for (const dataset::Sample& s : ds_->train)
    max_bytes = std::max(max_bytes, dataset::ShardStore::sample_bytes(s));
  dataset::ShardStore::Config cfg;
  cfg.max_resident_bytes = max_bytes + max_bytes / 2;
  dataset::ShardStore store(dir_, cfg);

  const double misses0 = counter("shards.misses");
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < store.num_train(); ++i) {
      const auto s = store.train(i);
      ASSERT_NE(s, nullptr);
      EXPECT_TRUE(store.resident_bytes() <= cfg.max_resident_bytes ||
                  store.resident_count() == 1)
          << "working set exceeded its budget with " << store.resident_count() << " entries";
    }
  }
  // The tight budget forces evictions, so the second pass cannot be all
  // hits: strictly more misses than samples, and within two full passes.
  const double misses = counter("shards.misses") - misses0;
  EXPECT_GT(misses, static_cast<double>(store.num_train()));
  EXPECT_LE(misses, static_cast<double>(2 * store.num_train()));

  // A roomy store serves the second pass entirely from memory.
  dataset::ShardStore roomy(dir_);
  const double h0 = counter("shards.hits");
  const double m0 = counter("shards.misses");
  for (std::size_t pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < roomy.num_train(); ++i) roomy.train(i);
  EXPECT_EQ(counter("shards.misses") - m0, static_cast<double>(roomy.num_train()));
  EXPECT_EQ(counter("shards.hits") - h0, static_cast<double>(roomy.num_train()));
  EXPECT_EQ(obs::MetricsRegistry::instance().gauge("shards.resident_bytes").value(),
            static_cast<double>(roomy.resident_bytes()));

  roomy.clear();
  EXPECT_EQ(roomy.resident_count(), 0u);
  EXPECT_EQ(roomy.resident_bytes(), 0u);
}

TEST_F(ShardsTest, CorruptShardIsRejected) {
  const std::string dir = (fs::temp_directory_path() / "paragraph_shards_corrupt").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(dir_, dir, fs::copy_options::recursive | fs::copy_options::overwrite_existing);

  const std::string victim = dir + "/train_00000.shard";
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  dataset::ShardStore store(dir);
  EXPECT_THROW(store.train(0), util::CorruptArtifactError);
  EXPECT_NO_THROW(store.train(1));  // other shards unaffected
  fs::remove_all(dir);
}

// Copies the packed fixture into a scratch directory a test may damage.
std::string copy_pack(const std::string& from, const char* name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(from, dir, fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  return dir;
}

// The checkpoint corruption matrix (serialize_robustness_test), run over a
// whole shard: truncations sweep the file and single-bit flips sample it.
// Every damaged copy must fail typed, and the other shards keep loading.
TEST_F(ShardsTest, CorruptionSweepIsTyped) {
  const std::string dir = copy_pack(dir_, "paragraph_shards_sweep");
  const std::string victim = dir + "/train_00000.shard";
  const std::string bytes = util::read_artifact_file(victim, "test");
  dataset::ShardStore store(dir);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 67) {
    util::write_file_atomic(victim, bytes.substr(0, cut));
    EXPECT_THROW(store.train(0), util::CorruptArtifactError) << "cut " << cut;
  }
  for (std::size_t pos = 0; pos < bytes.size(); pos += 131) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    util::write_file_atomic(victim, bad);
    EXPECT_THROW(store.train(0), util::CorruptArtifactError) << "flip " << pos;
  }
  // One byte past the size the manifest records.
  util::write_file_atomic(victim, bytes + '\0');
  EXPECT_THROW(store.train(0), util::CorruptArtifactError);

  dataset::ShardStore fresh(dir);
  for (std::size_t i = 1; i < fresh.num_train(); ++i) EXPECT_NO_THROW(fresh.train(i)) << i;
  for (std::size_t i = 0; i < fresh.num_test(); ++i) EXPECT_NO_THROW(fresh.test(i)) << i;
  fs::remove_all(dir);
}

using obs::JsonValue;

JsonValue with(JsonValue obj, const std::string& key, JsonValue v) {
  obj.set(key, std::move(v));
  return obj;
}

JsonValue without(const JsonValue& obj, const std::string& key) {
  JsonValue out = JsonValue::object();
  for (const auto& [k, v] : obj.items())
    if (k != key) out.set(k, v);
  return out;
}

JsonValue with_at(const JsonValue& arr, std::size_t i, JsonValue v) {
  JsonValue out = JsonValue::array();
  for (std::size_t j = 0; j < arr.size(); ++j) out.push_back(j == i ? v : arr[j]);
  return out;
}

JsonValue numbers(std::initializer_list<double> vs) {
  JsonValue out = JsonValue::array();
  for (const double v : vs) out.push_back(v);
  return out;
}

// The manifest with its first train entry replaced.
JsonValue with_entry(const JsonValue& root, JsonValue entry) {
  return with(root, "train", with_at(root.at("train"), 0, std::move(entry)));
}

// The manifest with normaliser statistic `key` of node type `t` replaced.
JsonValue with_stats(const JsonValue& root, std::size_t t, const char* key, JsonValue v) {
  const JsonValue& norm = root.at("normalizer");
  return with(root, "normalizer", with_at(norm, t, with(norm[t], key, std::move(v))));
}

// One hand edit of a packed manifest that ShardStore must refuse.
struct ManifestEdit {
  const char* name;
  std::function<JsonValue(const JsonValue&)> apply;
};

void PrintTo(const ManifestEdit& edit, std::ostream* os) { *os << edit.name; }

const JsonValue& entry0(const JsonValue& root) { return root.at("train")[0]; }

const ManifestEdit kManifestEdits[] = {
    {"EntryNotAnObject", [](const JsonValue& m) { return with_entry(m, 7); }},
    {"MissingFile", [](const JsonValue& m) { return with_entry(m, without(entry0(m), "file")); }},
    {"FileNotAString",
     [](const JsonValue& m) { return with_entry(m, with(entry0(m), "file", 5)); }},
    {"MissingName", [](const JsonValue& m) { return with_entry(m, without(entry0(m), "name")); }},
    {"NameNotAString",
     [](const JsonValue& m) { return with_entry(m, with(entry0(m), "name", JsonValue())); }},
    {"MissingBytes", [](const JsonValue& m) { return with_entry(m, without(entry0(m), "bytes")); }},
    {"BytesNotAnInteger",
     [](const JsonValue& m) { return with_entry(m, with(entry0(m), "bytes", "6890")); }},
    {"NegativeBytes",
     [](const JsonValue& m) { return with_entry(m, with(entry0(m), "bytes", -1)); }},
    {"MissingChecksum",
     [](const JsonValue& m) { return with_entry(m, without(entry0(m), "checksum")); }},
    {"ChecksumNotAString",
     [](const JsonValue& m) { return with_entry(m, with(entry0(m), "checksum", 12345)); }},
    {"ChecksumTooShort",
     [](const JsonValue& m) { return with_entry(m, with(entry0(m), "checksum", "fd68e129")); }},
    {"ChecksumNotHex",
     [](const JsonValue& m) {
       return with_entry(m, with(entry0(m), "checksum", "fd68e129bfc543zz"));
     }},
    {"NormalizerNotAnArray",
     [](const JsonValue& m) { return with(m, "normalizer", JsonValue::object()); }},
    {"NormalizerOneTypeShort",
     [](const JsonValue& m) {
       JsonValue norm = JsonValue::array();
       for (std::size_t t = 0; t + 1 < graph::kNumNodeTypes; ++t)
         norm.push_back(m.at("normalizer")[t]);
       return with(m, "normalizer", std::move(norm));
     }},
    {"NormalizerEntryNotAnObject",
     [](const JsonValue& m) { return with(m, "normalizer", with_at(m.at("normalizer"), 2, 1.0)); }},
    {"EmptyMeanAndStdev",
     [](const JsonValue& m) {
       return with_stats(with_stats(m, 1, "mean", JsonValue::array()), 1, "stdev",
                         JsonValue::array());
     }},
    {"ShortMean", [](const JsonValue& m) { return with_stats(m, 1, "mean", numbers({0, 0, 0})); }},
    {"LongStdev", [](const JsonValue& m) { return with_stats(m, 0, "stdev", numbers({1, 1})); }},
    {"MissingStdev",
     [](const JsonValue& m) {
       const JsonValue& norm = m.at("normalizer");
       return with(m, "normalizer", with_at(norm, 3, without(norm[3], "stdev")));
     }},
    {"MeanNotANumber",
     [](const JsonValue& m) {
       const JsonValue& mean = m.at("normalizer")[1].at("mean");
       return with_stats(m, 1, "mean", with_at(mean, 0, "x"));
     }},
    {"StdevBeyondFloatRange",
     [](const JsonValue& m) { return with_stats(m, 0, "stdev", numbers({1e300})); }},
};

// A copy of the packed fixture whose manifest went through `apply`.
std::string edited_pack(const std::string& from,
                        const std::function<JsonValue(const JsonValue&)>& apply) {
  const std::string dir = copy_pack(from, "paragraph_shards_manifest");
  const std::string path = dir + "/" + dataset::kShardManifestName;
  const auto doc = JsonValue::parse(util::read_artifact_file(path, "test"));
  EXPECT_TRUE(doc.has_value());
  util::write_file_atomic(path, apply(*doc).dump());
  return dir;
}

// Control for the edits below: the parse/dump round trip alone keeps the
// manifest loadable.
TEST_F(ShardsTest, ManifestRoundTripThroughJsonLoads) {
  const std::string dir = edited_pack(dir_, [](const JsonValue& m) { return m; });
  dataset::ShardStore store(dir);
  EXPECT_EQ(store.normalizer().fingerprint(), ds_->normalizer.fingerprint());
  EXPECT_NO_THROW(store.train(0));
  fs::remove_all(dir);
}

class ShardManifestTest : public ShardsTest,
                          public ::testing::WithParamInterface<ManifestEdit> {};

TEST_P(ShardManifestTest, EditIsCorruptArtifact) {
  const std::string dir = edited_pack(dir_, GetParam().apply);
  const std::string manifest = dir + "/" + dataset::kShardManifestName;
  try {
    dataset::ShardStore store(dir);
    ADD_FAILURE() << "edited manifest accepted";
  } catch (const util::CorruptArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find(manifest), std::string::npos) << e.what();
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Edits, ShardManifestTest, ::testing::ValuesIn(kManifestEdits),
                         [](const auto& info) { return std::string(info.param.name); });

core::PredictorConfig small_config(dataset::TargetKind target) {
  core::PredictorConfig cfg;
  cfg.target = target;
  cfg.embed_dim = 16;
  cfg.num_layers = 2;
  cfg.epochs = 2;
  cfg.seed = 3;
  return cfg;
}

void expect_streamed_matches_in_memory(const core::PredictorConfig& cfg,
                                       const dataset::SuiteDataset& ds,
                                       const std::string& dir) {
  core::GnnPredictor in_memory(cfg);
  const std::vector<double> losses_mem = in_memory.train(ds);

  // Tight budget: a fraction of the dataset resides at any time, so the
  // streamed run genuinely rebuilds plans/batches mid-epoch.
  std::size_t max_bytes = 0;
  for (const dataset::Sample& s : ds.train)
    max_bytes = std::max(max_bytes, dataset::ShardStore::sample_bytes(s));
  dataset::ShardStore::Config scfg;
  scfg.max_resident_bytes = 3 * max_bytes;
  dataset::ShardStore store(dir, scfg);

  core::GnnPredictor streamed(cfg);
  const std::vector<double> losses_str = streamed.train(store);

  ASSERT_EQ(losses_mem.size(), losses_str.size());
  for (std::size_t e = 0; e < losses_mem.size(); ++e)
    ASSERT_EQ(losses_mem[e], losses_str[e]) << "epoch " << e;

  // The streamed drift sketches must reproduce eval::sketch_graphs
  // exactly (same counts, same Welford moments, same bins).
  const auto& sk_mem = in_memory.feature_sketches();
  const auto& sk_str = streamed.feature_sketches();
  ASSERT_EQ(sk_mem.size(), sk_str.size());
  for (std::size_t i = 0; i < sk_mem.size(); ++i) {
    ASSERT_EQ(sk_mem[i].name(), sk_str[i].name());
    ASSERT_EQ(sk_mem[i].count(), sk_str[i].count());
    ASSERT_EQ(sk_mem[i].mean(), sk_str[i].mean());
    ASSERT_EQ(sk_mem[i].m2(), sk_str[i].m2());
    ASSERT_EQ(sk_mem[i].lo(), sk_str[i].lo());
    ASSERT_EQ(sk_mem[i].hi(), sk_str[i].hi());
    ASSERT_EQ(sk_mem[i].bins(), sk_str[i].bins());
  }
  // Both overloads build their sketches the same streaming way, so pin
  // them to the reference over the materialised training set too.
  const std::vector<obs::FeatureSketch> reference = eval::sketch_graphs(ds.train);
  ASSERT_EQ(reference.size(), sk_str.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i].name(), sk_str[i].name());
    ASSERT_EQ(reference[i].count(), sk_str[i].count());
    ASSERT_EQ(reference[i].mean(), sk_str[i].mean());
    ASSERT_EQ(reference[i].m2(), sk_str[i].m2());
    ASSERT_EQ(reference[i].lo(), sk_str[i].lo());
    ASSERT_EQ(reference[i].hi(), sk_str[i].hi());
    ASSERT_EQ(reference[i].bins(), sk_str[i].bins());
  }

  const core::EvalResult ev_mem = in_memory.evaluate(ds, ds.test);
  const core::EvalResult ev_str = streamed.evaluate(store, /*test_split=*/true);
  ASSERT_EQ(ev_mem.circuits.size(), ev_str.circuits.size());
  for (std::size_t c = 0; c < ev_mem.circuits.size(); ++c) {
    ASSERT_EQ(ev_mem.circuits[c].name, ev_str.circuits[c].name);
    ASSERT_EQ(ev_mem.circuits[c].truth, ev_str.circuits[c].truth);
    ASSERT_EQ(ev_mem.circuits[c].pred, ev_str.circuits[c].pred);
  }
}

TEST_F(ShardsTest, StreamedTrainAndEvalAreBitwiseIdentical) {
  expect_streamed_matches_in_memory(small_config(dataset::TargetKind::kCap), *ds_, dir_);
}

TEST_F(ShardsTest, StreamedTrainMatchesForZscoreTargetAndBatches) {
  // Device-parameter target exercises the streamed z-score pooling;
  // batch_size 2 exercises the group-pinned replica path.
  core::PredictorConfig cfg = small_config(dataset::TargetKind::kSourceArea);
  cfg.epochs = 1;
  cfg.batch_size = 2;
  expect_streamed_matches_in_memory(cfg, *ds_, dir_);
}

}  // namespace
}  // namespace paragraph
