#include "dataset/shards.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <utility>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/errors.h"

namespace paragraph::dataset {

namespace {

using circuit::Device;
using circuit::Netlist;

constexpr std::uint32_t kShardMagic = 0x64734750;  // "PGsd"
constexpr std::uint32_t kShardVersion = 1;

// Sane maxima for decoded counts: a corrupt shard must not drive huge
// allocations before the structural checks run. hier_giant tops out near
// 10^6 nets/devices; these bounds leave generous headroom.
constexpr std::uint64_t kMaxName = 1 << 20;
constexpr std::uint64_t kMaxNets = 1 << 26;
constexpr std::uint64_t kMaxDevices = 1 << 26;
constexpr std::uint64_t kMaxConns = 64;
constexpr std::uint64_t kMaxInstances = 1 << 22;
constexpr std::uint64_t kMaxBoundary = 1 << 16;
// The manifest holds one short entry per shard plus the normaliser.
constexpr std::uint64_t kMaxManifestBytes = std::uint64_t{64} << 20;

void write_str(util::ByteWriter& w, const std::string& s) {
  w.pod(static_cast<std::uint32_t>(s.size()));
  w.bytes(s);
}

std::string read_str(util::ByteReader& r, const char* what) {
  const auto n = r.bounded(r.pod<std::uint32_t>(what), 0, kMaxName, what);
  return std::string(r.bytes(static_cast<std::size_t>(n), what));
}

void write_netlist(util::ByteWriter& w, const Netlist& nl) {
  write_str(w, nl.name());
  w.pod(static_cast<std::uint64_t>(nl.num_nets()));
  for (const circuit::Net& n : nl.nets()) {
    write_str(w, n.name);
    w.pod(static_cast<std::uint8_t>(n.is_supply ? 1 : 0));
    w.pod(static_cast<std::uint8_t>(n.ground_truth_cap.has_value() ? 1 : 0));
    if (n.ground_truth_cap) w.pod(*n.ground_truth_cap);
    w.pod(static_cast<std::uint8_t>(n.ground_truth_res.has_value() ? 1 : 0));
    if (n.ground_truth_res) w.pod(*n.ground_truth_res);
  }
  w.pod(static_cast<std::uint64_t>(nl.num_devices()));
  for (const Device& d : nl.devices()) {
    write_str(w, d.name);
    w.pod(static_cast<std::uint8_t>(d.kind));
    w.pod(static_cast<std::uint32_t>(d.conns.size()));
    for (const circuit::NetId c : d.conns) w.pod(c);
    w.pod(d.params.length);
    w.pod(static_cast<std::int32_t>(d.params.num_fingers));
    w.pod(static_cast<std::int32_t>(d.params.num_fins));
    w.pod(static_cast<std::int32_t>(d.params.multiplier));
    w.pod(d.params.value);
    w.pod(static_cast<std::uint8_t>(d.layout.has_value() ? 1 : 0));
    if (d.layout) {
      w.pod(d.layout->source_area);
      w.pod(d.layout->drain_area);
      w.pod(d.layout->source_perimeter);
      w.pod(d.layout->drain_perimeter);
      for (const double v : d.layout->lde) w.pod(v);
    }
    write_str(w, d.instance_path);
  }
  w.pod(static_cast<std::uint64_t>(nl.instances().size()));
  for (const circuit::SubcktInstance& inst : nl.instances()) {
    write_str(w, inst.path);
    w.pod(static_cast<std::int32_t>(inst.parent));
    write_str(w, inst.ref.name);
    w.pod(inst.ref.structural_hash);
    w.pod(static_cast<std::uint32_t>(inst.ref.boundary_nets.size()));
    for (const circuit::NetId c : inst.ref.boundary_nets) w.pod(c);
    w.pod(inst.first_device);
    w.pod(inst.device_end);
    w.pod(inst.first_net);
    w.pod(inst.net_end);
  }
}

Netlist read_netlist(util::ByteReader& r) {
  Netlist nl(read_str(r, "netlist name"));
  const auto num_nets = r.bounded(r.pod<std::uint64_t>("net count"), 0, kMaxNets, "net count");
  for (std::uint64_t i = 0; i < num_nets; ++i) {
    const std::string name = read_str(r, "net name");
    const bool is_supply = r.pod<std::uint8_t>("net supply flag") != 0;
    const circuit::NetId id = nl.add_net(name, is_supply);
    if (id != static_cast<circuit::NetId>(i)) r.corrupt("duplicate net name '" + name + "'");
    if (r.pod<std::uint8_t>("cap flag") != 0)
      nl.net(id).ground_truth_cap = r.pod<double>("ground-truth cap");
    if (r.pod<std::uint8_t>("res flag") != 0)
      nl.net(id).ground_truth_res = r.pod<double>("ground-truth res");
  }
  const auto num_devices =
      r.bounded(r.pod<std::uint64_t>("device count"), 0, kMaxDevices, "device count");
  for (std::uint64_t i = 0; i < num_devices; ++i) {
    Device d;
    d.name = read_str(r, "device name");
    const auto kind = r.bounded(r.pod<std::uint8_t>("device kind"), 0,
                                circuit::kNumDeviceKinds - 1, "device kind");
    d.kind = static_cast<circuit::DeviceKind>(kind);
    const auto nconns =
        r.bounded(r.pod<std::uint32_t>("conn count"), 0, kMaxConns, "conn count");
    for (std::uint32_t c = 0; c < nconns; ++c) {
      const auto net = r.pod<circuit::NetId>("conn");
      if (net < 0 || static_cast<std::uint64_t>(net) >= num_nets)
        r.corrupt("device connection references missing net " + std::to_string(net));
      d.conns.push_back(net);
    }
    d.params.length = r.pod<double>("param length");
    d.params.num_fingers = r.pod<std::int32_t>("param nf");
    d.params.num_fins = r.pod<std::int32_t>("param nfin");
    d.params.multiplier = r.pod<std::int32_t>("param multi");
    d.params.value = r.pod<double>("param value");
    if (r.pod<std::uint8_t>("layout flag") != 0) {
      circuit::TransistorLayout lay;
      lay.source_area = r.pod<double>("layout sa");
      lay.drain_area = r.pod<double>("layout da");
      lay.source_perimeter = r.pod<double>("layout sp");
      lay.drain_perimeter = r.pod<double>("layout dp");
      for (double& v : lay.lde) v = r.pod<double>("layout lde");
      d.layout = lay;
    }
    d.instance_path = read_str(r, "instance path");
    try {
      if (nl.add_device(std::move(d)) != static_cast<circuit::DeviceId>(i))
        r.corrupt("device id out of order");
    } catch (const std::invalid_argument& e) {
      r.corrupt(e.what());
    }
  }
  const auto num_inst =
      r.bounded(r.pod<std::uint64_t>("instance count"), 0, kMaxInstances, "instance count");
  for (std::uint64_t i = 0; i < num_inst; ++i) {
    circuit::SubcktInstance inst;
    inst.path = read_str(r, "instance path");
    inst.parent = r.pod<std::int32_t>("instance parent");
    if (inst.parent < -1 || inst.parent >= static_cast<int>(i))
      r.corrupt("instance parent out of range");
    inst.ref.name = read_str(r, "subckt name");
    inst.ref.structural_hash = r.pod<std::uint64_t>("structural hash");
    const auto nb = r.bounded(r.pod<std::uint32_t>("boundary count"), 0, kMaxBoundary,
                              "boundary count");
    for (std::uint32_t b = 0; b < nb; ++b) {
      const auto net = r.pod<circuit::NetId>("boundary net");
      if (net < 0 || static_cast<std::uint64_t>(net) >= num_nets)
        r.corrupt("boundary net out of range");
      inst.ref.boundary_nets.push_back(net);
    }
    inst.first_device = r.pod<circuit::DeviceId>("first_device");
    inst.device_end = r.pod<circuit::DeviceId>("device_end");
    inst.first_net = r.pod<circuit::NetId>("first_net");
    inst.net_end = r.pod<circuit::NetId>("net_end");
    if (inst.first_device < 0 || inst.first_device > inst.device_end ||
        static_cast<std::uint64_t>(inst.device_end) > num_devices)
      r.corrupt("instance device range out of bounds");
    if (inst.first_net < 0 || inst.first_net > inst.net_end ||
        static_cast<std::uint64_t>(inst.net_end) > num_nets)
      r.corrupt("instance net range out of bounds");
    nl.add_instance(std::move(inst));
  }
  return nl;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

[[noreturn]] void bad_manifest(const std::string& path, const std::string& why) {
  throw util::CorruptArtifactError(path + ": " + why);
}

// One manifest field of the given kind, or a typed error naming the
// manifest.
const obs::JsonValue& manifest_field(const obs::JsonValue& obj, const char* key,
                                     obs::JsonValue::Kind kind, const std::string& path) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind() != kind)
    bad_manifest(path, std::string("missing or mistyped '") + key + "'");
  return *v;
}

}  // namespace

ShardWriteResult write_shards(const SuiteDataset& ds, const std::string& dir) {
  PARAGRAPH_TIMED_SCOPE("shards_write");
  std::filesystem::create_directories(dir);
  ShardWriteResult result;

  obs::JsonValue manifest = obs::JsonValue::object();
  manifest.set("format", kShardFormat);

  const auto pack_split = [&](const std::vector<Sample>& samples, const char* prefix) {
    obs::JsonValue arr = obs::JsonValue::array();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      char fname[64];
      std::snprintf(fname, sizeof fname, "%s_%05zu.shard", prefix, i);
      util::ByteWriter w;
      w.pod(kShardMagic);
      w.pod(kShardVersion);
      write_str(w, samples[i].name);
      write_netlist(w, samples[i].netlist);
      const std::uint64_t checksum = w.append_checksum();
      util::write_file_atomic(dir + "/" + fname, w.view());
      obs::JsonValue e = obs::JsonValue::object();
      e.set("file", fname);
      e.set("name", samples[i].name);
      e.set("bytes", w.view().size());
      e.set("checksum", hex64(checksum));
      arr.push_back(std::move(e));
      result.bytes += w.view().size();
      ++result.files;
    }
    return arr;
  };
  manifest.set("train", pack_split(ds.train, "train"));
  manifest.set("test", pack_split(ds.test, "test"));

  obs::JsonValue norm = obs::JsonValue::array();
  for (const FeatureNormalizer::TypeStats& ts : ds.normalizer.state()) {
    obs::JsonValue t = obs::JsonValue::object();
    obs::JsonValue mean = obs::JsonValue::array();
    obs::JsonValue stdev = obs::JsonValue::array();
    // float -> double is exact and JsonValue emits shortest-round-trip
    // doubles, so the reconstructed normaliser is bit-identical.
    for (const float v : ts.mean) mean.push_back(static_cast<double>(v));
    for (const float v : ts.stdev) stdev.push_back(static_cast<double>(v));
    t.set("mean", std::move(mean));
    t.set("stdev", std::move(stdev));
    norm.push_back(std::move(t));
  }
  manifest.set("normalizer", std::move(norm));

  result.manifest_path = dir + "/" + kShardManifestName;
  util::write_file_atomic(result.manifest_path, manifest.dump() + '\n');
  obs::log_debug("shards", "packed dataset",
                 {{"dir", dir},
                  {"files", result.files},
                  {"bytes", result.bytes}});
  return result;
}

ShardStore::ShardStore(const std::string& dir, Config cfg) : dir_(dir), cfg_(cfg) {
  const std::string path = dir_ + "/" + kShardManifestName;
  const std::string text = util::read_artifact_file(path, "shard manifest", kMaxManifestBytes);
  std::string err;
  const auto doc = obs::JsonValue::parse(text, &err);
  if (!doc) bad_manifest(path, err);
  const obs::JsonValue* format = doc->find("format");
  if (format == nullptr || !format->is_string() || format->as_string() != kShardFormat)
    bad_manifest(path, "not a " + std::string(kShardFormat) + " manifest");

  using Kind = obs::JsonValue::Kind;
  const auto parse_split = [&](const char* key, std::vector<Entry>& out) {
    for (const obs::JsonValue& e : manifest_field(*doc, key, Kind::kArray, path).elements()) {
      if (!e.is_object()) bad_manifest(path, std::string("'") + key + "' entry is not an object");
      Entry entry;
      entry.file = manifest_field(e, "file", Kind::kString, path).as_string();
      entry.name = manifest_field(e, "name", Kind::kString, path).as_string();
      const std::int64_t bytes = manifest_field(e, "bytes", Kind::kInt, path).as_int();
      if (bytes < 0) bad_manifest(path, "negative 'bytes' for '" + entry.file + "'");
      entry.bytes = static_cast<std::uint64_t>(bytes);
      const std::string& hex = manifest_field(e, "checksum", Kind::kString, path).as_string();
      const char* hex_end = hex.data() + hex.size();
      const auto [end, ec] = std::from_chars(hex.data(), hex_end, entry.checksum, 16);
      if (hex.size() != 16 || ec != std::errc() || end != hex_end)
        bad_manifest(path, "checksum of '" + entry.file + "' is not 16 hex digits");
      if (entry.file.find('/') != std::string::npos || entry.file.find("..") != std::string::npos)
        bad_manifest(path, "shard path escapes directory: '" + entry.file + "'");
      out.push_back(std::move(entry));
    }
  };
  parse_split("train", train_);
  parse_split("test", test_);

  const obs::JsonValue& norm = manifest_field(*doc, "normalizer", Kind::kArray, path);
  if (norm.size() != graph::kNumNodeTypes)
    bad_manifest(path, "normalizer needs one entry per node type");
  std::array<FeatureNormalizer::TypeStats, graph::kNumNodeTypes> state;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    if (!norm[t].is_object()) bad_manifest(path, "normalizer entry is not an object");
    // FeatureNormalizer::apply indexes both vectors by feature column.
    const std::size_t dim = graph::feature_dim(static_cast<graph::NodeType>(t));
    const auto stats = [&](const char* key) {
      const obs::JsonValue& arr = manifest_field(norm[t], key, Kind::kArray, path);
      if (arr.size() != dim)
        bad_manifest(path, "normalizer " + std::string(key) + " for node type " +
                               std::to_string(t) + " needs " + std::to_string(dim) + " values");
      std::vector<float> out;
      for (const obs::JsonValue& v : arr.elements()) {
        if (!v.is_number() || !(std::fabs(v.as_double()) <= std::numeric_limits<float>::max()))
          bad_manifest(path, "non-finite normalizer " + std::string(key));
        out.push_back(static_cast<float>(v.as_double()));
      }
      return out;
    };
    state[t] = {stats("mean"), stats("stdev")};
  }
  normalizer_ = FeatureNormalizer::from_state(state);
}

const std::string& ShardStore::train_name(std::size_t i) const { return train_.at(i).name; }
const std::string& ShardStore::test_name(std::size_t i) const { return test_.at(i).name; }

std::shared_ptr<const Sample> ShardStore::train(std::size_t i) { return load(false, i); }
std::shared_ptr<const Sample> ShardStore::test(std::size_t i) { return load(true, i); }

std::size_t ShardStore::sample_bytes(const Sample& s) {
  std::size_t b = sizeof(Sample);
  for (const circuit::Net& n : s.netlist.nets()) b += sizeof(circuit::Net) + n.name.size();
  for (const Device& d : s.netlist.devices())
    b += sizeof(Device) + d.name.size() + d.instance_path.size() +
         d.conns.size() * sizeof(circuit::NetId);
  for (const circuit::SubcktInstance& inst : s.netlist.instances())
    b += sizeof(circuit::SubcktInstance) + inst.path.size() +
         inst.ref.boundary_nets.size() * sizeof(circuit::NetId);
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto nt = static_cast<graph::NodeType>(t);
    b += s.graph.num_nodes(nt) * sizeof(std::int32_t);
    b += s.graph.features(nt).size() * sizeof(float);
  }
  b += s.graph.total_edges() * 2 * sizeof(std::int32_t);
  for (const auto& per_target : s.targets)
    for (const auto& vec : per_target) b += vec.size() * sizeof(float);
  return b;
}

std::shared_ptr<const Sample> ShardStore::load(bool is_test, std::size_t i) {
  const std::vector<Entry>& split = is_test ? test_ : train_;
  const Entry& entry = split.at(i);
  const std::uint64_t key = (is_test ? (1ull << 63) : 0ull) | static_cast<std::uint64_t>(i);

  static obs::Counter& hits = obs::MetricsRegistry::instance().counter("shards.hits");
  static obs::Counter& misses = obs::MetricsRegistry::instance().counter("shards.misses");
  static obs::Gauge& resident = obs::MetricsRegistry::instance().gauge("shards.resident_bytes");

  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    hits.add();
    return lru_.front().sample;
  }
  misses.add();

  const std::string path = dir_ + "/" + entry.file;
  Sample sample;
  {
    PARAGRAPH_TIMED_SCOPE("shard_load");
    // The manifest's byte count is the file's exact size bound.
    const std::string bytes = util::read_artifact_file(path, "shard", entry.bytes);
    util::ByteReader r(bytes, "shard '" + path + "'");
    if (r.strip_checksum() != entry.checksum) r.corrupt("checksum disagrees with the manifest");
    if (r.pod<std::uint32_t>("magic") != kShardMagic) r.corrupt("bad magic");
    const auto version = r.pod<std::uint32_t>("version");
    if (version != kShardVersion)
      r.corrupt("unsupported shard version " + std::to_string(version));
    const std::string name = read_str(r, "sample name");
    if (name != entry.name) r.corrupt("sample name disagrees with the manifest");
    circuit::Netlist nl = read_netlist(r);
    if (r.remaining() != 0) r.corrupt("trailing bytes after netlist");
    try {
      nl.validate();
    } catch (const std::exception& e) {
      r.corrupt(std::string("reconstructed netlist invalid: ") + e.what());
    }
    sample = make_sample(std::move(nl));
  }

  auto sp = std::make_shared<const Sample>(std::move(sample));
  Resident res;
  res.sample = sp;
  res.bytes = sample_bytes(*sp);
  res.key = key;
  resident_bytes_ += res.bytes;
  lru_.push_front(std::move(res));
  index_[key] = lru_.begin();
  evict_to_budget();
  resident.set(static_cast<double>(resident_bytes_));
  return sp;
}

void ShardStore::evict_to_budget() {
  // Always keep the newest entry so one oversized sample is still served.
  while (resident_bytes_ > cfg_.max_resident_bytes && lru_.size() > 1) {
    const Resident& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

void ShardStore::clear() {
  lru_.clear();
  index_.clear();
  resident_bytes_ = 0;
  obs::MetricsRegistry::instance().gauge("shards.resident_bytes").set(0.0);
}

}  // namespace paragraph::dataset
