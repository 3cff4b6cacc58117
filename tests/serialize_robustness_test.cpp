// Corrupt-artifact matrix for the model-file and checkpoint formats:
// truncation at every boundary, bit flips anywhere in a v6 file, flipped
// magic/version, rejection of older format versions, oversized dims and
// hostile fields inside the normaliser and sketch blocks (reached by
// restamping the checksum), and round-trip integrity. Every rejection must
// be the typed error the API documents — never a crash, hang, or silent
// misload.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/serialize.h"
#include "graph/hetero_graph.h"
#include "obs/sketch.h"
#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/errors.h"

namespace paragraph::core {
namespace {

// Byte offsets of the fixed header fields (see predictor_to_bytes).
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffEmbedDim = 16;
constexpr std::size_t kOffScalerZscore = 96;
constexpr std::size_t kOffScalerStdev = 106;
constexpr std::size_t kOffParamCount = 122;
constexpr std::size_t kOffFirstRows = 130;

std::string tiny_model_bytes() {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.embed_dim = 4;
  pc.num_layers = 1;
  pc.fc_layers = 1;
  const GnnPredictor p(pc);  // untrained weights serialize fine
  return predictor_to_bytes(p);
}

template <typename T>
void patch(std::string& bytes, std::size_t off, T value) {
  ASSERT_LE(off + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + off, &value, sizeof(T));
}

std::vector<obs::FeatureSketch> sample_sketches() {
  obs::FeatureSketch binned("net.f0");
  binned.configure_bins(-1.0, 3.0, 8);
  for (int i = 0; i < 100; ++i) binned.add(-1.5 + 0.05 * i);
  obs::FeatureSketch moments_only("graph.total_nodes");
  moments_only.add(4.0);
  moments_only.add(9.0);
  return {binned, moments_only};
}

std::string sketch_model_bytes() {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.embed_dim = 4;
  pc.num_layers = 1;
  pc.fc_layers = 1;
  GnnPredictor p(pc);
  p.set_feature_sketches(sample_sketches());
  return predictor_to_bytes(p);
}

// A fitted normaliser with every mean `m` and every stdev `s`, each row
// as wide as its node type's features.
dataset::FeatureNormalizer uniform_normalizer(float m, float s) {
  std::array<dataset::FeatureNormalizer::TypeStats, graph::kNumNodeTypes> st;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const std::size_t dim = graph::feature_dim(static_cast<graph::NodeType>(t));
    st[t] = {std::vector<float>(dim, m), std::vector<float>(dim, s)};
  }
  return dataset::FeatureNormalizer::from_state(st);
}

std::string normalizer_model_bytes(const dataset::FeatureNormalizer& norm) {
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.embed_dim = 4;
  pc.num_layers = 1;
  pc.fc_layers = 1;
  GnnPredictor p(pc);
  p.set_normalizer(norm);
  return predictor_to_bytes(p);
}

// An unfitted normaliser block: the count and 2 x kNumNodeTypes empty 1x0
// matrices (u64 rows, u64 cols each).
constexpr std::size_t kEmptyNormalizerBlock = 8 + 2 * graph::kNumNodeTypes * 16;

// The normaliser block starts where the parameter data ends; in the tiny
// (untrained) model the empty sketch count and the checksum follow it.
std::size_t normalizer_block_offset() {
  return tiny_model_bytes().size() - 2 * sizeof(std::uint64_t) - kEmptyNormalizerBlock;
}

// Recomputes the trailing checksum after a test mutated the payload, so
// hostile field values reach the bounded readers instead of tripping the
// checksum first.
std::string restamp_checksum(std::string bytes) {
  bytes.resize(bytes.size() - sizeof(std::uint64_t));
  const std::uint64_t sum = util::fnv1a64(bytes);
  bytes.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return bytes;
}

TEST(SerializeRobustness, BytesRoundTripPreservesConfigAndWeights) {
  const std::string bytes = tiny_model_bytes();
  const GnnPredictor loaded = predictor_from_bytes(bytes, "round-trip");
  EXPECT_EQ(loaded.config().embed_dim, 4u);
  EXPECT_EQ(loaded.config().num_layers, 1u);
  // Re-serialising must reproduce the exact bytes (weights included).
  EXPECT_EQ(predictor_to_bytes(loaded), bytes);
}

TEST(SerializeRobustness, TruncationAtEveryBoundaryIsTyped) {
  const std::string bytes = tiny_model_bytes();
  // Every header-field boundary, plus a sweep through the parameter data
  // and the checksum region.
  std::vector<std::size_t> cuts = {0,  1,  4,   8,   12,  16,  24,  32,  40,  48, 52,
                                   56, 60, 64,  72,  80,  88,  96,  97,  98,  106, 114,
                                   122, 130, 138, 146, bytes.size() - 9, bytes.size() - 8,
                                   bytes.size() - 1};
  for (std::size_t step = 151; step < bytes.size(); step += 151) cuts.push_back(step);
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    EXPECT_THROW(predictor_from_bytes(bytes.substr(0, cut), "truncated"),
                 util::CorruptArtifactError)
        << "cut at " << cut;
  }
}

TEST(SerializeRobustness, ChecksumCatchesBitFlipsAnywhere) {
  const std::string pristine = tiny_model_bytes();
  // Flipping any single bit — header, weights, or the checksum itself —
  // must be detected. Sample positions across the whole file.
  for (std::size_t pos = 8; pos < pristine.size(); pos += 97) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    EXPECT_THROW(predictor_from_bytes(bytes, "bit flip"), util::CorruptArtifactError)
        << "flip at " << pos;
  }
}

TEST(SerializeRobustness, BadMagicAndFutureVersionAreTyped) {
  std::string bytes = tiny_model_bytes();
  {
    std::string bad = bytes;
    patch<std::uint32_t>(bad, 0, 0xdeadbeef);
    EXPECT_THROW(predictor_from_bytes(bad, "magic"), util::CorruptArtifactError);
  }
  {
    std::string bad = bytes;
    patch<std::uint32_t>(bad, kOffVersion, 99);
    EXPECT_THROW(predictor_from_bytes(bad, "version"), util::CorruptArtifactError);
  }
  EXPECT_THROW(predictor_from_bytes("", "empty"), util::CorruptArtifactError);
  EXPECT_THROW(predictor_from_bytes("definitely not a model", "garbage"),
               util::CorruptArtifactError);
}

TEST(SerializeRobustness, OversizedDimsAreBoundedBeforeAllocation) {
  // With the checksum restamped, a hostile dim reaches the bounded
  // readers; they must reject it before any allocation sized by the field.
  const std::string v5 = tiny_model_bytes();
  {
    std::string bad = v5;
    patch<std::uint64_t>(bad, kOffEmbedDim, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "embed"),
                 util::CorruptArtifactError);
  }
  {
    std::string bad = v5;
    patch<std::uint64_t>(bad, kOffParamCount, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "count"),
                 util::CorruptArtifactError);
  }
  {
    std::string bad = v5;
    patch<std::uint64_t>(bad, kOffFirstRows, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "rows"),
                 util::CorruptArtifactError);
  }
}

TEST(SerializeRobustness, NonFiniteAndInvalidScalerStateRejected) {
  const std::string v5 = tiny_model_bytes();
  {
    std::string bad = v5;
    patch<double>(bad, 40, std::numeric_limits<double>::quiet_NaN());  // max_v_ff
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "nan"), util::CorruptArtifactError);
  }
  {
    // z-score scaler with stdev 0 would divide by zero on every inverse.
    std::string bad = v5;
    patch<bool>(bad, kOffScalerZscore, true);
    patch<double>(bad, kOffScalerStdev, 0.0);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "stdev"),
                 util::CorruptArtifactError);
  }
}

TEST(SerializeRobustness, RejectsTrailingBytes) {
  std::string v5 = tiny_model_bytes();
  v5.append("junk");
  EXPECT_THROW(predictor_from_bytes(v5, "trailing"), util::CorruptArtifactError);
}

TEST(SerializeRobustness, V4FilesAreRejected) {
  // A v4 file is the v5 layout minus the sketch block: drop the empty
  // sketch count (8 bytes before the checksum), stamp version 4, restamp.
  // Only format 6 loads, and the error names the version it found.
  std::string bytes = tiny_model_bytes();
  bytes.erase(bytes.size() - 2 * sizeof(std::uint64_t), sizeof(std::uint64_t));
  patch<std::uint32_t>(bytes, kOffVersion, 4);
  bytes = restamp_checksum(bytes);
  try {
    predictor_from_bytes(bytes, "v4 file");
    ADD_FAILURE() << "a v4 model file loaded";
  } catch (const util::CorruptArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 4"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeRobustness, V5FilesAreRejected) {
  // A v5 file is the v6 layout minus the normaliser block: cut the
  // untrained model's empty block, stamp version 5, restamp.
  std::string bytes = tiny_model_bytes();
  bytes.erase(normalizer_block_offset(), kEmptyNormalizerBlock);
  patch<std::uint32_t>(bytes, kOffVersion, 5);
  bytes = restamp_checksum(bytes);
  try {
    predictor_from_bytes(bytes, "v5 file");
    ADD_FAILURE() << "a v5 model file loaded";
  } catch (const util::CorruptArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 5 (this build reads 6)"),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializeRobustness, V6NormalizerBlockRoundTrips) {
  const dataset::FeatureNormalizer norm = uniform_normalizer(0.5f, 2.0f);
  const std::string bytes = normalizer_model_bytes(norm);
  const GnnPredictor loaded = predictor_from_bytes(bytes, "v6 round-trip");
  EXPECT_TRUE(loaded.normalizer() == norm);
  EXPECT_EQ(predictor_to_bytes(loaded), bytes);
  // An untrained model writes an all-empty block and loads unfitted.
  EXPECT_FALSE(predictor_from_bytes(tiny_model_bytes(), "untrained").normalizer().fitted());
}

TEST(SerializeRobustness, HostileNormalizerBlockIsTyped) {
  const std::string good = normalizer_model_bytes(uniform_normalizer(0.5f, 2.0f));
  const std::size_t off = normalizer_block_offset();
  // Node type 0's mean row data follows the block count and the row's
  // shape; its stdev row follows the mean.
  const std::size_t dim0 = graph::feature_dim(static_cast<graph::NodeType>(0));
  const std::size_t mean0 = off + 8 + 16;
  const std::size_t stdev0 = mean0 + dim0 * sizeof(float) + 16;
  float v = 0.0f;
  std::memcpy(&v, good.data() + mean0, sizeof v);
  ASSERT_EQ(v, 0.5f);
  std::memcpy(&v, good.data() + stdev0, sizeof v);
  ASSERT_EQ(v, 2.0f);
  const auto rejects = [](const std::string& bytes, const char* what) {
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bytes), what), util::CorruptArtifactError)
        << what;
  };
  const auto patched = [&](std::size_t at, auto value) {
    std::string bad = good;
    patch(bad, at, value);
    return bad;
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  rejects(patched(off, std::uint64_t{2 * graph::kNumNodeTypes - 1}), "matrix count");
  rejects(patched(mean0, nan), "NaN mean");
  rejects(patched(mean0, inf), "infinite mean");
  rejects(patched(stdev0, 0.0f), "zero stdev");
  rejects(patched(stdev0, -1.0f), "negative stdev");
  rejects(patched(stdev0, nan), "NaN stdev");

  // Shapes: the writer emits whatever state it holds, checksum included.
  const auto full = uniform_normalizer(0.5f, 2.0f).state();
  const auto shaped = [&](auto edit, const char* what) {
    auto st = full;
    edit(st);
    rejects(normalizer_model_bytes(dataset::FeatureNormalizer::from_state(st)), what);
  };
  shaped([](auto& st) { st[1].mean.push_back(0.5f); }, "mean row too wide");
  shaped([](auto& st) { st[2].stdev.pop_back(); }, "stdev row too narrow");
  shaped([](auto& st) { st[3] = {}; }, "one node type empty");
  shaped([](auto& st) { st[0] = {}; }, "node type 0 empty, the rest fitted");
}

TEST(SerializeRobustness, V5SketchBlockRoundTrips) {
  const std::string bytes = sketch_model_bytes();
  const GnnPredictor loaded = predictor_from_bytes(bytes, "v5 round-trip");
  const auto want = sample_sketches();
  const auto& got = loaded.feature_sketches();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name(), want[i].name());
    EXPECT_EQ(got[i].count(), want[i].count());
    EXPECT_DOUBLE_EQ(got[i].mean(), want[i].mean());
    EXPECT_DOUBLE_EQ(got[i].m2(), want[i].m2());
    EXPECT_DOUBLE_EQ(got[i].lo(), want[i].lo());
    EXPECT_DOUBLE_EQ(got[i].hi(), want[i].hi());
    EXPECT_EQ(got[i].bins(), want[i].bins());
    EXPECT_EQ(got[i].underflow(), want[i].underflow());
    EXPECT_EQ(got[i].overflow(), want[i].overflow());
  }
  // Byte-exact re-serialisation, sketches included.
  EXPECT_EQ(predictor_to_bytes(loaded), bytes);
}

TEST(SerializeRobustness, TruncationInsideSketchBlockIsTyped) {
  const std::string with = sketch_model_bytes();
  const std::string without = tiny_model_bytes();
  ASSERT_GT(with.size(), without.size());
  // The sketch block spans [params_end, checksum); sweep cuts through it.
  const std::size_t block_start = without.size() - 2 * sizeof(std::uint64_t);
  for (std::size_t cut = block_start; cut < with.size(); cut += 7) {
    EXPECT_THROW(predictor_from_bytes(with.substr(0, cut), "sketch truncation"),
                 util::CorruptArtifactError)
        << "cut at " << cut;
  }
}

TEST(SerializeRobustness, HostileSketchFieldsAreBoundedBeforeAllocation) {
  const std::string with = sketch_model_bytes();
  const std::string without = tiny_model_bytes();
  // Sketch count sits where the empty block's count sat.
  const std::size_t off_count = without.size() - 2 * sizeof(std::uint64_t);
  {
    std::string bad = with;
    patch<std::uint64_t>(bad, off_count, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "sketch count"),
                 util::CorruptArtifactError);
  }
  {
    // First sketch's name length field follows the count.
    std::string bad = with;
    patch<std::uint64_t>(bad, off_count + 8, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "sketch name length"),
                 util::CorruptArtifactError);
  }
  {
    // First sketch layout after the name: count(8) mean(8) m2(8) lo(8)
    // hi(8) underflow(8) overflow(8) nbins(8). Poison the mean with NaN
    // and the bin count with an absurd value.
    const std::size_t name_len = std::string("net.f0").size();
    const std::size_t off_fields = off_count + 8 + 8 + name_len;
    std::string bad = with;
    patch<double>(bad, off_fields + 8, std::numeric_limits<double>::quiet_NaN());
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad), "sketch mean"),
                 util::CorruptArtifactError);
    std::string bad2 = with;
    patch<std::uint64_t>(bad2, off_fields + 7 * 8, std::uint64_t{1} << 40);
    EXPECT_THROW(predictor_from_bytes(restamp_checksum(bad2), "sketch bins"),
                 util::CorruptArtifactError);
  }
}

TEST(SerializeRobustness, ChecksumCatchesBitFlipsInSketchBlock) {
  const std::string pristine = sketch_model_bytes();
  const std::size_t block_start = tiny_model_bytes().size() - 2 * sizeof(std::uint64_t);
  for (std::size_t pos = block_start; pos < pristine.size(); pos += 13) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x04);
    EXPECT_THROW(predictor_from_bytes(bytes, "sketch bit flip"), util::CorruptArtifactError)
        << "flip at " << pos;
  }
}

TEST(SerializeRobustness, FileLayerErrorsAreTyped) {
  EXPECT_THROW(load_predictor("/nonexistent/dir/model.bin"), util::IoError);
  const std::string path = ::testing::TempDir() + "serialize_robustness_garbage.bin";
  util::write_file_atomic(path, "short");
  EXPECT_THROW(load_predictor(path), util::CorruptArtifactError);
  std::remove(path.c_str());
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  static TrainCheckpoint sample() {
    TrainCheckpoint ck;
    ck.next_epoch = 7;
    ck.lr_scale = 0.5f;
    ck.nonfinite_streak = 1;
    ck.has_best = true;
    ck.best_loss = 0.125;
    ck.best_params = {nn::Matrix(2, 3, {1, 2, 3, 4, 5, 6})};
    ck.shuffle_rng = {{11, 22, 33, 44}, 0.5, true};
    ck.adam_steps = 42;
    ck.adam_m = {nn::Matrix(2, 3, {0, 0, 0, 0, 0, 1})};
    ck.adam_v = {nn::Matrix(2, 3, {1, 0, 0, 0, 0, 0})};
    ck.model_bytes = tiny_model_bytes();
    return ck;
  }

  std::string path_ = ::testing::TempDir() + "paragraph_ckpt_robustness.bin";
};

TEST_F(CheckpointFileTest, RoundTripPreservesEveryField) {
  const TrainCheckpoint ck = sample();
  save_checkpoint(ck, path_);
  const TrainCheckpoint r = load_checkpoint(path_);
  EXPECT_EQ(r.next_epoch, ck.next_epoch);
  EXPECT_EQ(r.lr_scale, ck.lr_scale);
  EXPECT_EQ(r.nonfinite_streak, ck.nonfinite_streak);
  EXPECT_EQ(r.has_best, ck.has_best);
  EXPECT_EQ(r.best_loss, ck.best_loss);
  ASSERT_EQ(r.best_params.size(), 1u);
  EXPECT_EQ(r.best_params[0].rows(), 2u);
  EXPECT_EQ(r.best_params[0].cols(), 3u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.shuffle_rng.words[i], ck.shuffle_rng.words[i]);
  EXPECT_EQ(r.shuffle_rng.cached_normal, ck.shuffle_rng.cached_normal);
  EXPECT_EQ(r.shuffle_rng.has_cached_normal, ck.shuffle_rng.has_cached_normal);
  EXPECT_EQ(r.adam_steps, ck.adam_steps);
  ASSERT_EQ(r.adam_m.size(), 1u);
  ASSERT_EQ(r.adam_v.size(), 1u);
  EXPECT_EQ(r.model_bytes, ck.model_bytes);
}

TEST_F(CheckpointFileTest, CorruptionMatrixIsTyped) {
  save_checkpoint(sample(), path_);
  std::string bytes;
  {
    const std::string loaded = util::read_artifact_file(path_, "test");
    bytes = loaded;
  }
  // Truncations sweep the whole file; bit flips sample it.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 67) {
    util::write_file_atomic(path_, bytes.substr(0, cut));
    EXPECT_THROW(load_checkpoint(path_), util::CorruptArtifactError) << "cut " << cut;
  }
  for (std::size_t pos = 0; pos < bytes.size(); pos += 131) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    util::write_file_atomic(path_, bad);
    EXPECT_THROW(load_checkpoint(path_), util::CorruptArtifactError) << "flip " << pos;
  }
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/ck.bin"), util::IoError);
}

}  // namespace
}  // namespace paragraph::core
