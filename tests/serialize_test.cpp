#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "core/serialize.h"

namespace paragraph::core {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "paragraph_model.bin";
};

TEST_F(SerializeTest, RoundTripPreservesPredictions) {
  const auto ds = dataset::build_dataset(77, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.max_v_ff = 100.0;
  pc.epochs = 10;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor trained(pc);
  trained.train(ds);
  const auto before = trained.predict_all(ds, ds.test[0]);

  save_predictor(trained, path_);
  GnnPredictor loaded = load_predictor(path_);
  EXPECT_EQ(loaded.config().embed_dim, 8u);
  EXPECT_EQ(loaded.config().target, dataset::TargetKind::kCap);
  const auto after = loaded.predict_all(ds, ds.test[0]);

  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_FLOAT_EQ(before[i], after[i]);
}

TEST_F(SerializeTest, RoundTripZscoreScaler) {
  const auto ds = dataset::build_dataset(78, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kSourceArea;
  pc.epochs = 5;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  const GnnPredictor loaded = load_predictor(path_);
  const auto s1 = trained.scaler().state();
  const auto s2 = loaded.scaler().state();
  EXPECT_EQ(s1.zscore, s2.zscore);
  EXPECT_DOUBLE_EQ(s1.mean, s2.mean);
  EXPECT_DOUBLE_EQ(s1.stdev, s2.stdev);
}

TEST_F(SerializeTest, ScaleRoundTrips) {
  const auto ds = dataset::build_dataset(80, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.scale = 0.05;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  const GnnPredictor loaded = load_predictor(path_);
  EXPECT_DOUBLE_EQ(loaded.config().scale, 0.05);
}

TEST_F(SerializeTest, BatchAndThreadMetadataRoundTrip) {
  const auto ds = dataset::build_dataset(84, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.scale = 0.05;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  pc.batch_size = 3;
  pc.train_threads = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  const GnnPredictor loaded = load_predictor(path_);
  EXPECT_EQ(loaded.config().batch_size, 3u);
  EXPECT_EQ(loaded.config().train_threads, 4u);
}

TEST_F(SerializeTest, RejectsUnsupportedVersion) {
  const auto ds = dataset::build_dataset(82, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 1;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(4);
  const std::uint32_t future = 99;
  f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  f.close();
  EXPECT_THROW(load_predictor(path_), std::runtime_error);
}

TEST_F(SerializeTest, RejectsGarbageFile) {
  std::ofstream(path_) << "definitely not a model";
  EXPECT_THROW(load_predictor(path_), std::runtime_error);
}

TEST_F(SerializeTest, RejectsMissingFile) {
  EXPECT_THROW(load_predictor("/nonexistent/model.bin"), std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedFile) {
  const auto ds = dataset::build_dataset(79, 0.05);
  PredictorConfig pc;
  pc.target = dataset::TargetKind::kCap;
  pc.epochs = 2;
  pc.num_layers = 1;
  pc.embed_dim = 4;
  GnnPredictor trained(pc);
  trained.train(ds);
  save_predictor(trained, path_);
  // Truncate to half.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();
  EXPECT_THROW(load_predictor(path_), std::runtime_error);
}

}  // namespace
}  // namespace paragraph::core
