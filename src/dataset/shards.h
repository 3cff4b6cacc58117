// Out-of-core dataset shards (format `paragraph-shard-v1`).
//
// A packed dataset is a directory holding one binary shard file per
// sample plus a `manifest.json`. Each shard serialises the ANNOTATED
// netlist only (nets with ground-truth cap/res, devices with layout and
// instance provenance, subckt instance records) — the graph and the 14
// target vectors are rebuilt on load via dataset::make_sample, which is
// deterministic in the netlist alone. Persisting the smallest artefact
// keeps shards compact and guarantees a loaded sample is bit-identical
// to the in-memory original (graph construction is the same code path).
//
// The manifest carries the format tag, the per-file checksums, and the
// fitted FeatureNormalizer statistics (exact: doubles are emitted with
// shortest-round-trip formatting), so a ShardStore reconstructs the same
// normalisation the pack-time dataset used without touching any shard.
//
// Durability/integrity: every file is published with
// util::write_file_atomic (temp + fsync + rename) and read back with
// util::read_artifact_file, a shard no larger than the byte count its
// manifest entry records. Shard payloads end in the checksum trailer of
// util/bytes.h and decode through the bounded ByteReader, and every
// manifest field is type- and size-checked, so truncated, bit-flipped or
// hand-edited files raise util::CorruptArtifactError instead of
// propagating garbage.
//
// Memory bound: ShardStore materialises samples on demand through an LRU
// working set capped at Config::max_resident_bytes (CLI --max-resident-mb).
// Counters `shards.hits` / `shards.misses` and gauge
// `shards.resident_bytes` account for every materialisation. Loads hand
// out shared_ptrs, so eviction never invalidates a sample a caller still
// holds; the budget bounds what the STORE keeps alive. Not thread-safe —
// callers serialise access (the streamed train/eval paths fetch on the
// orchestrating thread only).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/dataset.h"

namespace paragraph::dataset {

inline constexpr const char* kShardFormat = "paragraph-shard-v1";
inline constexpr const char* kShardManifestName = "manifest.json";

struct ShardWriteResult {
  std::string manifest_path;
  std::size_t files = 0;       // shard files written (manifest excluded)
  std::uint64_t bytes = 0;     // total shard payload bytes
};

// Packs `ds` into `dir` (created if needed), overwriting any previous
// pack. Throws util::IoError on write failure.
ShardWriteResult write_shards(const SuiteDataset& ds, const std::string& dir);

class ShardStore {
 public:
  struct Config {
    // LRU budget for materialised samples. The default comfortably holds
    // the paper suite; hier_giant runs shrink it to prove the bound.
    std::size_t max_resident_bytes = 512ull << 20;
  };

  // Opens `dir`/manifest.json. Throws util::IoError (unreadable) or
  // util::CorruptArtifactError (malformed manifest).
  ShardStore(const std::string& dir, Config cfg);
  explicit ShardStore(const std::string& dir) : ShardStore(dir, Config()) {}

  std::size_t num_train() const { return train_.size(); }
  std::size_t num_test() const { return test_.size(); }
  const FeatureNormalizer& normalizer() const { return normalizer_; }
  const Config& config() const { return cfg_; }

  // Sample names without materialising anything (manifest metadata).
  const std::string& train_name(std::size_t i) const;
  const std::string& test_name(std::size_t i) const;

  // Materialises (or returns the resident) sample. The returned pointer
  // stays valid for as long as the caller holds it, independent of
  // eviction.
  std::shared_ptr<const Sample> train(std::size_t i);
  std::shared_ptr<const Sample> test(std::size_t i);

  std::size_t resident_bytes() const { return resident_bytes_; }
  std::size_t resident_count() const { return lru_.size(); }

  // Drops the working set (pinned samples survive via their shared_ptrs).
  void clear();

  // Working-set cost estimate of one materialised sample: netlist,
  // graph (nodes, features, edges), and target vectors. The same
  // estimator prices entries into the LRU budget.
  static std::size_t sample_bytes(const Sample& s);

 private:
  struct Entry {
    std::string file;       // path relative to dir_
    std::string name;       // sample/netlist name
    std::uint64_t checksum = 0;
    std::uint64_t bytes = 0;  // on-disk file size, the read bound
  };

  std::shared_ptr<const Sample> load(bool is_test, std::size_t i);
  void evict_to_budget();

  std::string dir_;
  Config cfg_;
  FeatureNormalizer normalizer_;
  std::vector<Entry> train_, test_;

  // LRU over materialised samples, keyed by (split, index).
  struct Resident {
    std::shared_ptr<const Sample> sample;
    std::size_t bytes = 0;
    std::uint64_t key = 0;
  };
  std::list<Resident> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Resident>::iterator> index_;
  std::size_t resident_bytes_ = 0;
};

}  // namespace paragraph::dataset
