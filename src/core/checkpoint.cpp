#include "core/checkpoint.h"

#include <cmath>
#include <cstdint>

#include "core/serialize.h"
#include "util/atomic_file.h"

namespace paragraph::core {

namespace {

constexpr std::uint32_t kMagic = 0x5047636b;  // "PGck"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kMaxModelBytes = std::uint64_t{1} << 30;

}  // namespace

void save_checkpoint(const TrainCheckpoint& ckpt, const std::string& path) {
  util::ByteWriter w;
  w.pod(kMagic);
  w.pod(kVersion);
  w.pod(static_cast<std::int32_t>(ckpt.next_epoch));
  w.pod(ckpt.lr_scale);
  w.pod(static_cast<std::int32_t>(ckpt.nonfinite_streak));
  w.pod(ckpt.has_best);
  w.pod(ckpt.best_loss);
  write_matrices(w, ckpt.best_params);
  for (const std::uint64_t word : ckpt.shuffle_rng.words) w.pod(word);
  w.pod(ckpt.shuffle_rng.cached_normal);
  w.pod(ckpt.shuffle_rng.has_cached_normal);
  w.pod(static_cast<std::int64_t>(ckpt.adam_steps));
  write_matrices(w, ckpt.adam_m);
  write_matrices(w, ckpt.adam_v);
  w.pod(static_cast<std::uint64_t>(ckpt.model_bytes.size()));
  w.bytes(ckpt.model_bytes);
  w.append_checksum();
  util::write_file_atomic(path, w.view());
}

TrainCheckpoint load_checkpoint(const std::string& path) {
  const std::string bytes = util::read_artifact_file(path, "load_checkpoint");
  util::ByteReader r(bytes, "load_checkpoint: '" + path + "'");
  r.strip_checksum();
  if (r.pod<std::uint32_t>("magic") != kMagic)
    r.corrupt("not a ParaGraph checkpoint file (bad magic)");
  const auto version = r.pod<std::uint32_t>("version");
  if (version != kVersion)
    r.corrupt("unsupported checkpoint version " + std::to_string(version));

  TrainCheckpoint ckpt;
  ckpt.next_epoch = static_cast<int>(
      r.bounded(static_cast<std::uint64_t>(r.pod<std::int32_t>("next_epoch")), 0,
                std::uint64_t{1} << 31, "next_epoch"));
  ckpt.lr_scale = r.pod<float>("lr_scale");
  if (!std::isfinite(ckpt.lr_scale) || ckpt.lr_scale <= 0.0f || ckpt.lr_scale > 1.0f)
    r.corrupt("lr_scale out of range");
  ckpt.nonfinite_streak = static_cast<int>(
      r.bounded(static_cast<std::uint64_t>(r.pod<std::int32_t>("nonfinite_streak")), 0, 1 << 20,
                "nonfinite_streak"));
  ckpt.has_best = r.pod<bool>("has_best");
  ckpt.best_loss = r.pod<double>("best_loss");
  ckpt.best_params = read_matrices(r);
  for (auto& w : ckpt.shuffle_rng.words) w = r.pod<std::uint64_t>("rng word");
  ckpt.shuffle_rng.cached_normal = r.pod<double>("rng cached normal");
  ckpt.shuffle_rng.has_cached_normal = r.pod<bool>("rng cache flag");
  ckpt.adam_steps = static_cast<long>(
      r.bounded(static_cast<std::uint64_t>(r.pod<std::int64_t>("adam steps")), 0,
                std::uint64_t{1} << 40, "adam steps"));
  ckpt.adam_m = read_matrices(r);
  ckpt.adam_v = read_matrices(r);
  const auto model_size =
      r.bounded(r.pod<std::uint64_t>("model blob size"), 0, kMaxModelBytes, "model blob size");
  ckpt.model_bytes = std::string(r.bytes(static_cast<std::size_t>(model_size), "model blob"));
  if (r.remaining() != 0)
    r.corrupt(std::to_string(r.remaining()) + " trailing bytes after model blob");
  if (ckpt.adam_m.size() != ckpt.adam_v.size())
    r.corrupt("Adam moment lists disagree in length");
  return ckpt;
}

}  // namespace paragraph::core
