// In-process loopback tests for the serve subsystem (DESIGN.md §12):
// queue semantics, micro-batching bit-identity against single-request
// serving, priority ordering under a held backlog, admission control,
// graceful reload mid-traffic, degraded-ensemble reloads, and the TCP
// listener. Everything runs against a real Server on a unix socket in
// the test temp dir — the same code path production clients hit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "circuit/spice_parser.h"
#include "circuit/spice_writer.h"
#include "core/ensemble.h"
#include "core/serialize.h"
#include "dataset/dataset.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "serve/telemetry.h"
#include "util/errors.h"
#include "util/faultinject.h"
#include "util/strings.h"

namespace paragraph::serve {
namespace {

dataset::SuiteDataset& tiny_dataset() {
  static dataset::SuiteDataset ds = dataset::build_dataset(21, 0.05);
  return ds;
}

core::CapEnsemble train_tiny_ensemble(int epochs) {
  core::EnsembleConfig cfg;
  cfg.max_vs_ff = {1.0, 1e4};
  cfg.base.epochs = epochs;
  cfg.base.num_layers = 2;
  cfg.base.embed_dim = 8;
  cfg.base.seed = 21;  // matches tiny_dataset, the suite the members train on
  cfg.base.scale = 0.05;
  core::CapEnsemble ens(cfg);
  ens.train(tiny_dataset());
  return ens;
}

// Two trained generations, saved once per process: "A" is the serving
// ensemble, "B" is the replacement the reload tests swap in. Different
// epoch counts give different weights, so their predictions are
// distinguishable; both carry tiny_dataset's normaliser in their files.
struct Artifacts {
  std::string dir;
  std::string ensemble_a;  // + .m0 / .m1 member files
  std::string ensemble_b;
};

const Artifacts& artifacts() {
  static const Artifacts a = [] {
    Artifacts art;
    art.dir = ::testing::TempDir() + "serve_artifacts";
    std::filesystem::create_directories(art.dir);
    art.ensemble_a = art.dir + "/ens_a.bin";
    art.ensemble_b = art.dir + "/ens_b.bin";
    train_tiny_ensemble(2).save(art.ensemble_a);
    train_tiny_ensemble(3).save(art.ensemble_b);
    return art;
  }();
  return a;
}

// Copies an ensemble (manifest + members) to fresh paths so tests that
// corrupt or swap files cannot interfere with each other.
std::string copy_ensemble(const std::string& src, const std::string& dst) {
  namespace fs = std::filesystem;
  for (const char* suffix : {"", ".m0", ".m1"})
    fs::copy_file(src + suffix, dst + suffix, fs::copy_options::overwrite_existing);
  return dst;
}

ServeConfig base_config(const std::string& tag, const std::string& ensemble_path) {
  ServeConfig cfg;
  cfg.socket_path = ::testing::TempDir() + "serve_" + tag + ".sock";
  cfg.registry.ensemble_path = ensemble_path;
  return cfg;
}

std::vector<std::string> test_decks() {
  std::vector<std::string> decks;
  for (const auto& s : tiny_dataset().test) decks.push_back(circuit::write_spice_string(s.netlist));
  // A hierarchical deck (instances survive flattening) exercises the
  // worker's PlanCache path alongside the flat parallel path.
  decks.push_back(R"(.subckt inv in out
Mn out in vss vss nmos L=16n W=32n
Mp out in vdd vdd pmos L=16n W=64n
.ends
X1 a b inv
X2 b c inv
X3 c d inv
C1 d vss 1f
)");
  return decks;
}

std::string predictions_of(const obs::JsonValue& resp) {
  const obs::JsonValue* p = resp.find("predictions");
  return p != nullptr ? p->dump() : std::string();
}

// ---------------------------------------------------------------- queue unit

Job make_job(std::int64_t id, Priority p) {
  Job j;
  j.id = id;
  j.priority = p;
  return j;
}

TEST(RequestQueue, StrictPriorityFifoWithinLane) {
  RequestQueue q(8);
  ASSERT_EQ(q.push(make_job(1, Priority::kLow)), RequestQueue::PushResult::kOk);
  ASSERT_EQ(q.push(make_job(2, Priority::kHigh)), RequestQueue::PushResult::kOk);
  ASSERT_EQ(q.push(make_job(3, Priority::kNormal)), RequestQueue::PushResult::kOk);
  ASSERT_EQ(q.push(make_job(4, Priority::kHigh)), RequestQueue::PushResult::kOk);
  const auto batch = q.pop_batch(8);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].id, 2);  // high, FIFO
  EXPECT_EQ(batch[1].id, 4);
  EXPECT_EQ(batch[2].id, 3);  // then normal
  EXPECT_EQ(batch[3].id, 1);  // then low
}

TEST(RequestQueue, CapacityRejectsAndCloseDrains) {
  RequestQueue q(2);
  EXPECT_EQ(q.push(make_job(1, Priority::kNormal)), RequestQueue::PushResult::kOk);
  EXPECT_EQ(q.push(make_job(2, Priority::kNormal)), RequestQueue::PushResult::kOk);
  EXPECT_EQ(q.push(make_job(3, Priority::kHigh)), RequestQueue::PushResult::kFull);
  q.close();
  EXPECT_EQ(q.push(make_job(4, Priority::kNormal)), RequestQueue::PushResult::kClosed);
  EXPECT_EQ(q.pop_batch(1).size(), 1u);  // drains despite closed
  EXPECT_EQ(q.pop_batch(1).size(), 1u);
  EXPECT_TRUE(q.pop_batch(1).empty());  // closed + empty = worker exit
}

TEST(RequestQueue, PopBatchTakesAtMostMaxBatch) {
  RequestQueue q(8);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(q.push(make_job(i, Priority::kNormal)),
                                        RequestQueue::PushResult::kOk);
  EXPECT_EQ(q.pop_batch(3).size(), 3u);
  EXPECT_EQ(q.depth(), 2u);
}

// ------------------------------------------------------------- server loops

TEST(Serve, BatchedResponsesBitIdenticalToSingle) {
  const auto decks = test_decks();

  // Pass 1: micro-batching on; hold the queue so the backlog forms and
  // the whole set is answered in one batch.
  std::vector<std::string> batched;
  {
    ServeConfig cfg = base_config("batched", artifacts().ensemble_a);
    cfg.max_batch = 16;
    Server server(cfg);
    server.start();
    server.pause_worker();
    ServeClient client = ServeClient::connect_unix(cfg.socket_path);
    for (std::size_t i = 0; i < decks.size(); ++i) {
      obs::JsonValue req = obs::JsonValue::object();
      req.set("id", static_cast<long long>(i));
      req.set("netlist", decks[i]);
      write_frame(client.fd(), req.dump());
    }
    // All admitted before any service: the admission happens on the
    // I/O loop, so wait for the queue to fill.
    while (server.stats().requests.load() < decks.size())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.resume_worker();
    for (std::size_t i = 0; i < decks.size(); ++i) {
      std::string payload;
      ASSERT_TRUE(read_frame(client.fd(), &payload));
      const auto resp = obs::JsonValue::parse(payload);
      ASSERT_TRUE(resp.has_value());
      ASSERT_TRUE(resp->at("ok").as_bool()) << payload;
      batched.push_back(predictions_of(*resp));
    }
    EXPECT_EQ(server.stats().batches.load(), 1u) << "backlog should drain as one micro-batch";
    EXPECT_EQ(server.stats().max_batch_seen.load(), decks.size());
    server.stop();
  }

  // Pass 2: batching off (max_batch = 1), fresh server, same decks one
  // round-trip at a time.
  {
    ServeConfig cfg = base_config("single", artifacts().ensemble_a);
    cfg.max_batch = 1;
    Server server(cfg);
    server.start();
    ServeClient client = ServeClient::connect_unix(cfg.socket_path);
    for (std::size_t i = 0; i < decks.size(); ++i) {
      const obs::JsonValue resp = client.predict(decks[i]);
      ASSERT_TRUE(resp.at("ok").as_bool());
      // Responses must match the batched pass byte for byte: micro-
      // batching is a latency optimisation, never a numerics change.
      EXPECT_EQ(predictions_of(resp), batched[i]) << "deck " << i;
    }
    server.stop();
  }
}

TEST(Serve, DuplicateRequestsCoalesceToOnePrediction) {
  ServeConfig cfg = base_config("dup", artifacts().ensemble_a);
  cfg.max_batch = 8;
  Server server(cfg);
  server.start();
  server.pause_worker();
  const std::string deck = test_decks()[0];
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  for (int i = 0; i < 4; ++i) {
    obs::JsonValue req = obs::JsonValue::object();
    req.set("id", static_cast<long long>(i));
    req.set("netlist", deck);
    write_frame(client.fd(), req.dump());
  }
  while (server.stats().requests.load() < 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.resume_worker();
  std::string first;
  for (int i = 0; i < 4; ++i) {
    std::string payload;
    ASSERT_TRUE(read_frame(client.fd(), &payload));
    const auto resp = obs::JsonValue::parse(payload);
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->at("ok").as_bool());
    if (i == 0) first = predictions_of(*resp);
    EXPECT_EQ(predictions_of(*resp), first);
  }
  // 4 identical decks in one batch = 1 predicted group + 3 coalesced.
  EXPECT_EQ(server.stats().coalesced.load(), 3u);
  server.stop();
}

TEST(Serve, PriorityOrderingUnderBacklog) {
  ServeConfig cfg = base_config("prio", artifacts().ensemble_a);
  cfg.max_batch = 1;  // one job per batch: service order is observable
  Server server(cfg);
  server.start();
  server.pause_worker();
  const std::string deck = test_decks()[0];
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  const std::vector<std::pair<int, const char*>> sends = {
      {1, "low"}, {2, "normal"}, {3, "high"}, {4, "low"}, {5, "high"}, {6, "normal"}};
  for (const auto& [id, prio] : sends) {
    obs::JsonValue req = obs::JsonValue::object();
    req.set("id", static_cast<long long>(id));
    req.set("netlist", deck);
    req.set("priority", prio);
    write_frame(client.fd(), req.dump());
  }
  while (server.stats().requests.load() < sends.size())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.resume_worker();
  // Responses on one connection arrive in service order: highs first
  // (FIFO within the lane), then normals, then lows.
  const std::vector<int> expect = {3, 5, 2, 6, 1, 4};
  for (const int want : expect) {
    std::string payload;
    ASSERT_TRUE(read_frame(client.fd(), &payload));
    const auto resp = obs::JsonValue::parse(payload);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->at("id").as_int(), want);
  }
  server.stop();
}

TEST(Serve, FullQueueRejectsWithTypedError) {
  ServeConfig cfg = base_config("full", artifacts().ensemble_a);
  cfg.queue_capacity = 2;
  cfg.client_queue_cap = 2;  // whole-queue admission is what's under test
  Server server(cfg);
  server.start();
  server.pause_worker();
  const std::string deck = test_decks()[0];
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  for (int i = 0; i < 3; ++i) {
    obs::JsonValue req = obs::JsonValue::object();
    req.set("id", static_cast<long long>(i));
    req.set("netlist", deck);
    write_frame(client.fd(), req.dump());
  }
  // The rejection arrives while the worker is still paused: admission
  // control answers immediately, it never waits for capacity.
  std::string payload;
  ASSERT_TRUE(read_frame(client.fd(), &payload));
  const auto resp = obs::JsonValue::parse(payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->at("ok").as_bool());
  EXPECT_EQ(resp->at("error").at("code").as_string(), "queue_full");
  EXPECT_EQ(resp->at("id").as_int(), 2);  // the overflowing request
  EXPECT_EQ(server.stats().rejected.load(), 1u);
  server.resume_worker();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(read_frame(client.fd(), &payload));
    EXPECT_TRUE(obs::JsonValue::parse(payload)->at("ok").as_bool());
  }
  server.stop();
}

TEST(Serve, BadRequestsAnswerTypedErrorsAndServerSurvives) {
  ServeConfig cfg = base_config("bad", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);

  write_frame(client.fd(), "this is not json");
  std::string payload;
  ASSERT_TRUE(read_frame(client.fd(), &payload));
  EXPECT_EQ(obs::JsonValue::parse(payload)->at("error").at("code").as_string(), "bad_request");

  obs::JsonValue req = obs::JsonValue::object();
  req.set("id", 9);
  req.set("netlist", "Zq bogus card\n");
  write_frame(client.fd(), req.dump());
  ASSERT_TRUE(read_frame(client.fd(), &payload));
  const auto resp = obs::JsonValue::parse(payload);
  EXPECT_EQ(resp->at("error").at("code").as_string(), "parse_error");
  EXPECT_EQ(resp->at("id").as_int(), 9);

  // The daemon is still healthy afterwards.
  EXPECT_TRUE(client.predict(test_decks()[0]).at("ok").as_bool());
  server.stop();
}

TEST(Serve, ReloadMidTrafficServesOnlyCompleteGenerations) {
  namespace fs = std::filesystem;
  const std::string live = copy_ensemble(artifacts().ensemble_a,
                                         ::testing::TempDir() + "serve_live_ens.bin");
  ServeConfig cfg = base_config("reload", live);
  Server server(cfg);
  server.start();
  const std::string deck = test_decks()[0];

  ServeClient probe = ServeClient::connect_unix(cfg.socket_path);
  const std::string expect_a = predictions_of(probe.predict(deck));

  // Hammer from two client threads while the swap happens; every answer
  // must be ok and carry a complete generation's predictions.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> failures{0}, mixed{0}, old_gen{0}, new_gen{0};
  const auto hammer = [&] {
    ServeClient c = ServeClient::connect_unix(cfg.socket_path);
    while (!done.load()) {
      const obs::JsonValue resp = c.predict(deck);
      const obs::JsonValue* ok = resp.find("ok");
      if (ok == nullptr || !ok->as_bool()) {
        failures.fetch_add(1);
        continue;
      }
      const std::uint64_t gen = static_cast<std::uint64_t>(resp.at("model_generation").as_int());
      (gen == 1 ? old_gen : new_gen).fetch_add(1);
      // Generation 1 answers must be pure model A. (Generation 2 answers
      // are checked against B once the hammer stops.)
      if (gen == 1 && predictions_of(resp) != expect_a) mixed.fetch_add(1);
    }
  };
  std::thread t1(hammer), t2(hammer);

  copy_ensemble(artifacts().ensemble_b, live);
  const obs::JsonValue reload_resp = probe.admin("reload");
  ASSERT_TRUE(reload_resp.at("ok").as_bool());
  EXPECT_EQ(reload_resp.at("model_generation").as_int(), 2);
  // Let post-reload traffic flow, then stop.
  for (int i = 0; i < 20 && new_gen.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  done.store(true);
  t1.join();
  t2.join();

  EXPECT_EQ(failures.load(), 0u) << "reload must not fail any request";
  EXPECT_EQ(mixed.load(), 0u) << "every answer must come from one complete generation";
  EXPECT_GT(old_gen.load() + new_gen.load(), 0u);

  // Post-swap answers are pure model B: bit-identical to a fresh server
  // loading B directly.
  const std::string expect_b_live = predictions_of(probe.predict(deck));
  EXPECT_NE(expect_b_live, expect_a) << "generations must differ for this test to mean anything";
  {
    ServeConfig bcfg = base_config("reload_b", artifacts().ensemble_b);
    Server bserver(bcfg);
    bserver.start();
    ServeClient bc = ServeClient::connect_unix(bcfg.socket_path);
    EXPECT_EQ(predictions_of(bc.predict(deck)), expect_b_live);
    bserver.stop();
  }
  server.stop();
  fs::remove(live + ".m0");
  fs::remove(live + ".m1");
  fs::remove(live);
}

TEST(Serve, CorruptMemberOnReloadDegradesButServes) {
  const std::string live = copy_ensemble(artifacts().ensemble_a,
                                         ::testing::TempDir() + "serve_degraded_ens.bin");
  ServeConfig cfg = base_config("degraded", live);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  ASSERT_FALSE(client.predict(test_decks()[0]).at("degraded").as_bool());

  {
    std::ofstream f(live + ".m1", std::ios::trunc);
    f << "not a model";
  }
  const obs::JsonValue resp = client.admin("reload");
  ASSERT_TRUE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("model_generation").as_int(), 2);
  EXPECT_TRUE(resp.at("degraded").as_bool());

  // Still answering, flagged degraded, and stats name the corrupt file.
  const obs::JsonValue pred = client.predict(test_decks()[0]);
  EXPECT_TRUE(pred.at("ok").as_bool());
  EXPECT_TRUE(pred.at("degraded").as_bool());
  const obs::JsonValue stats = client.admin("stats");
  const auto& dropped = stats.at("stats").at("model").at("dropped_members");
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_NE(dropped[0].as_string().find(".m1"), std::string::npos);
  server.stop();
  std::filesystem::remove(live + ".m0");
  std::filesystem::remove(live + ".m1");
  std::filesystem::remove(live);
}

TEST(Serve, CorruptManifestOnReloadKeepsOldGenerationServing) {
  const std::string live = copy_ensemble(artifacts().ensemble_a,
                                         ::testing::TempDir() + "serve_manifest_ens.bin");
  ServeConfig cfg = base_config("manifest", live);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  const std::string before = predictions_of(client.predict(test_decks()[0]));

  {
    std::ofstream f(live, std::ios::trunc);
    f << "garbage manifest";
  }
  const obs::JsonValue resp = client.admin("reload");
  // The reload failed, the old generation still serves, unchanged.
  ASSERT_TRUE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("model_generation").as_int(), 1);
  const obs::JsonValue pred = client.predict(test_decks()[0]);
  EXPECT_TRUE(pred.at("ok").as_bool());
  EXPECT_EQ(predictions_of(pred), before);
  server.stop();
  std::filesystem::remove(live + ".m0");
  std::filesystem::remove(live + ".m1");
  std::filesystem::remove(live);
}

TEST(Serve, TcpLoopbackServes) {
  ServeConfig cfg = base_config("tcp", artifacts().ensemble_a);
  cfg.tcp_port = 0;  // ephemeral
  Server server(cfg);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  ServeClient client = ServeClient::connect_tcp("127.0.0.1", server.tcp_port());
  const obs::JsonValue resp = client.predict(test_decks()[0]);
  EXPECT_TRUE(resp.at("ok").as_bool());

  ServeClient unix_client = ServeClient::connect_unix(cfg.socket_path);
  EXPECT_EQ(predictions_of(unix_client.predict(test_decks()[0])), predictions_of(resp));
  server.stop();
}

TEST(Serve, SocketPathInUseThrowsIoError) {
  ServeConfig cfg = base_config("inuse", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  Server rival(cfg);
  EXPECT_THROW(rival.start(), util::IoError);
  // The loser must not have unlinked the winner's socket.
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  EXPECT_TRUE(client.admin("stats").at("ok").as_bool());
  server.stop();
}

TEST(Serve, ShutdownAdminDrainsAndStops) {
  ServeConfig cfg = base_config("shutdown", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  EXPECT_TRUE(client.admin("shutdown").at("ok").as_bool());
  server.wait();  // returns once the loop saw the stop byte
  server.stop();
  // Fresh connections are refused after teardown.
  EXPECT_THROW(ServeClient::connect_unix(cfg.socket_path), util::IoError);
}

TEST(Serve, SubcktCardOfAnyCaseTakesThePlanCachePath) {
  // SPICE cards are case-insensitive: a `.Subckt` deck is as hierarchical
  // as a `.subckt` one, so it must reach the PlanCache and answer the
  // same predictions bit for bit.
  const auto chain_deck = [](const std::string& subckt_card) {
    // A 16-device template (eight inverters), instantiated 40 times.
    std::string deck = subckt_card + " chain n0 n8\n";
    for (int i = 1; i <= 8; ++i) {
      deck += util::format("Mn%d n%d n%d vss vss nmos L=16n W=32n\n", i, i, i - 1);
      deck += util::format("Mp%d n%d n%d vdd vdd pmos L=16n W=64n\n", i, i, i - 1);
    }
    deck += ".ends\n";
    for (int k = 0; k < 40; ++k) deck += util::format("X%d s%d s%d chain\n", k, k, k + 1);
    return deck + "C1 s40 vss 1f\n";
  };
  ServeConfig cfg = base_config("subckt_case", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  const obs::JsonValue lower = client.predict(chain_deck(".subckt"));
  ASSERT_TRUE(lower.at("ok").as_bool()) << lower.dump();

  const obs::Counter& hits = obs::MetricsRegistry::instance().counter("plancache.hits");
  const std::uint64_t hits_before = hits.value();
  const obs::JsonValue mixed = client.predict(chain_deck(".Subckt"));
  ASSERT_TRUE(mixed.at("ok").as_bool()) << mixed.dump();
  EXPECT_GT(hits.value(), hits_before) << "a .Subckt deck must take the PlanCache path";
  EXPECT_EQ(predictions_of(mixed), predictions_of(lower));
  server.stop();
}

TEST(Serve, ReloadClearsThePlanCache) {
  // Template embeddings are keyed by model, and a retired generation's
  // models never ask again: the first batch of a new generation drops
  // the PlanCache instead of letting it grow with every reload.
  std::string deck = ".subckt ring a z\n";  // 16 devices, instantiated 8 times
  for (int i = 1; i <= 8; ++i) {
    const std::string in = i == 1 ? "a" : util::format("r%d", i - 1);
    const std::string out = i == 8 ? "z" : util::format("r%d", i);
    deck += util::format("Mn%d %s %s vss vss nmos L=16n W=32n\n", i, out.c_str(), in.c_str());
    deck += util::format("Mp%d %s %s vdd vdd pmos L=16n W=64n\n", i, out.c_str(), in.c_str());
  }
  deck += ".ends\n";
  for (int k = 0; k < 8; ++k) deck += util::format("X%d t%d t%d ring\n", k, k, k + 1);
  deck += "C1 t8 vss 1f\n";

  ServeConfig cfg = base_config("plancache_reload", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  const obs::Gauge& bytes = obs::MetricsRegistry::instance().gauge("plancache.bytes");
  ASSERT_TRUE(client.predict(deck).at("ok").as_bool());
  EXPECT_GT(bytes.value(), 0.0) << "the hierarchical deck was not cached";
  ASSERT_TRUE(client.admin("reload").at("ok").as_bool());
  ASSERT_TRUE(client.predict(test_decks().front()).at("ok").as_bool());  // flat
  EXPECT_EQ(bytes.value(), 0.0) << "the retired generation's embeddings stayed cached";
  server.stop();
}

TEST(Serve, DeviceModelAnswersDecksWithoutThickDevices) {
  // SA spans thin and thick-oxide transistors. A deck with thin ones only
  // must answer the ensemble's CAP and the SA model's values together.
  core::PredictorConfig pc;
  pc.target = dataset::TargetKind::kSourceArea;
  pc.epochs = 2;
  pc.num_layers = 2;
  pc.embed_dim = 8;
  pc.seed = 21;  // tiny_dataset, the ensemble's training suite
  pc.scale = 0.05;
  core::GnnPredictor sa(pc);
  sa.train(tiny_dataset());
  const std::string sa_path = artifacts().dir + "/sa_thin_only.bin";
  core::save_predictor(sa, sa_path);

  ServeConfig cfg = base_config("sa_thin_only", artifacts().ensemble_a);
  cfg.registry.model_paths = {sa_path};
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  const obs::JsonValue resp = client.predict(
      "* one inverter\nMn out in vss vss nmos L=16n W=32n\n"
      "Mp out in vdd vdd pmos L=16n W=64n\nC1 out vss 1f\n");
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  const obs::JsonValue& preds = resp.at("predictions");
  const obs::JsonValue* cap = preds.find("CAP");
  ASSERT_NE(cap, nullptr) << resp.dump();
  EXPECT_GT(cap->items().size(), 0u);
  const obs::JsonValue* sa_preds = preds.find("SA");
  ASSERT_NE(sa_preds, nullptr) << resp.dump();
  EXPECT_EQ(sa_preds->items().size(), 2u) << "one SA value per thin transistor";
  server.stop();
}

// An ensemble member served on its own normalises with the statistics of
// the suite it was trained on, which its file carries, not with a suite
// built from its own seed (the ensemble's base seed + 101).
TEST(Serve, EnsembleMemberServedAloneKeepsItsTrainingNormaliser) {
  ServeConfig cfg = base_config("member_alone", "");
  cfg.registry.model_paths = {artifacts().ensemble_a + ".m1"};
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  const core::CapEnsemble ens = core::CapEnsemble::load(artifacts().ensemble_a);
  for (const std::string& deck : test_decks()) {
    const obs::JsonValue resp = client.predict(deck);
    ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
    const obs::JsonValue& cap = resp.at("predictions").at("CAP");
    dataset::Sample sample;
    sample.netlist = circuit::parse_spice_string(deck);
    sample.graph = graph::build_graph(sample.netlist);
    const std::vector<float> want = ens.model(1).predict_all(tiny_dataset(), sample);
    const auto& nets = sample.graph.origins(graph::NodeType::kNet);
    ASSERT_EQ(cap.items().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const std::string& name = sample.netlist.net(nets[i]).name;
      EXPECT_EQ(static_cast<float>(cap.at(name).as_double()), want[i]) << name;
    }
  }
  server.stop();
}

TEST(Serve, IdleConnectionsAddNoThreads) {
  // One I/O loop serves every connection: 64 open connections cost file
  // descriptors, not threads.
  const auto task_count = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
      ++n;
    return n;
  };
  ServeConfig cfg = base_config("threads", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  const std::size_t before = task_count();
  std::vector<ServeClient> conns;
  for (int i = 0; i < 64; ++i) conns.push_back(ServeClient::connect_unix(cfg.socket_path));
  // Connections are accepted in order, so an answer on the last one means
  // the server holds all 64.
  ASSERT_TRUE(conns.back().admin("healthz").at("ok").as_bool());
  EXPECT_EQ(server.stats().connections.load(), 64u);
  EXPECT_LE(task_count(), before) << "the thread count must not follow the connection count";
  server.stop();
}

// ------------------------------------------------------------ SLO tracking

TEST(SloTracker, LatencyThresholdSplitsGoodFromBad) {
  SloTracker slo(SloTracker::Config{10.0, 0.99});
  const std::int64_t sec = 1000;
  slo.record_at(sec, true, 5.0);    // good: ok and fast
  slo.record_at(sec, true, 25.0);   // bad: ok but over threshold
  slo.record_at(sec, false, 1.0);   // bad: failed
  const auto w = slo.window_at(sec, 10);
  EXPECT_EQ(w.total, 3u);
  EXPECT_EQ(w.good, 1u);
  EXPECT_NEAR(w.availability, 1.0 / 3.0, 1e-12);
  // burn = (1 - availability) / (1 - target) = (2/3) / 0.01
  EXPECT_NEAR(w.burn_rate, (2.0 / 3.0) / 0.01, 1e-9);
}

TEST(SloTracker, EmptyWindowIsFullyAvailable) {
  SloTracker slo(SloTracker::Config{});
  const auto w = slo.window_at(42, 300);
  EXPECT_EQ(w.total, 0u);
  EXPECT_DOUBLE_EQ(w.availability, 1.0);
  EXPECT_DOUBLE_EQ(w.burn_rate, 0.0);
}

TEST(SloTracker, BucketsAgeOutAtExactWindowEdge) {
  SloTracker slo(SloTracker::Config{});
  slo.record_at(100, true, 1.0);
  EXPECT_EQ(slo.window_at(100, 10).total, 1u);
  EXPECT_EQ(slo.window_at(109, 10).total, 1u);  // 9s old: still inside
  EXPECT_EQ(slo.window_at(110, 10).total, 0u);  // 10s old: aged out
}

TEST(SloTracker, RingWraparoundReclaimsStaleBuckets) {
  SloTracker slo(SloTracker::Config{});
  slo.record_at(5, false, 0.0);
  // 301 seconds later the same slot is reused; the stale second must not
  // leak into any window.
  slo.record_at(5 + 301, true, 1.0);
  const auto w = slo.window_at(5 + 301, 300);
  EXPECT_EQ(w.total, 1u);
  EXPECT_EQ(w.good, 1u);
  // Oversized windows clamp to the ring span instead of double counting.
  EXPECT_EQ(slo.window_at(5 + 301, 100000).total, 1u);
}

TEST(SloTracker, NonsenseConfigFallsBackToDefaults) {
  SloTracker slo(SloTracker::Config{-3.0, 2.0});
  EXPECT_DOUBLE_EQ(slo.config().latency_ms, 50.0);
  EXPECT_DOUBLE_EQ(slo.config().target, 0.999);
}

// --------------------------------------------------------- live telemetry

TEST(Serve, RequestIdRoundTripsAndIsAssignedWhenAbsent) {
  ServeConfig cfg = base_config("reqid", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);

  // Client-propagated id is echoed verbatim.
  const obs::JsonValue resp = client.predict(test_decks()[0], Priority::kNormal, 7, "trace-abc");
  ASSERT_TRUE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("request_id").as_string(), "trace-abc");
  EXPECT_EQ(resp.at("id").as_int(), 7);

  // Without one the server assigns "r<N>".
  const obs::JsonValue resp2 = client.predict(test_decks()[0]);
  ASSERT_TRUE(resp2.at("ok").as_bool());
  const std::string assigned = resp2.at("request_id").as_string();
  ASSERT_FALSE(assigned.empty());
  EXPECT_EQ(assigned[0], 'r');

  // Error responses carry the id too (parse failures included).
  obs::JsonValue bad = obs::JsonValue::object();
  bad.set("id", 8);
  bad.set("request_id", "trace-bad");
  bad.set("netlist", "Zq bogus card\n");
  write_frame(client.fd(), bad.dump());
  std::string payload;
  ASSERT_TRUE(read_frame(client.fd(), &payload));
  const auto err = obs::JsonValue::parse(payload);
  EXPECT_EQ(err->at("error").at("code").as_string(), "parse_error");
  EXPECT_EQ(err->at("request_id").as_string(), "trace-bad");
  server.stop();
}

TEST(Serve, StatsDocumentIsValidUnderConcurrentLoad) {
  ServeConfig cfg = base_config("statsload", artifacts().ensemble_a);
  cfg.max_batch = 4;
  Server server(cfg);
  server.start();
  const std::string deck = test_decks()[0];

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> hammered{0};
  const auto hammer = [&] {
    ServeClient c = ServeClient::connect_unix(cfg.socket_path);
    while (!done.load()) {
      c.predict(deck);
      hammered.fetch_add(1);
    }
  };
  std::thread t1(hammer), t2(hammer);
  while (hammered.load() < 4) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Poll stats while traffic flows; every answer must be a complete,
  // schema-valid paragraph-stats-v1 document.
  ServeClient probe = ServeClient::connect_unix(cfg.socket_path);
  for (int i = 0; i < 10; ++i) {
    const obs::JsonValue resp = probe.admin("stats");
    ASSERT_TRUE(resp.at("ok").as_bool());
    const obs::JsonValue& s = resp.at("stats");
    EXPECT_EQ(s.at("schema").as_string(), "paragraph-stats-v1");

    const obs::JsonValue& srv = s.at("server");
    for (const char* key : {"connections", "requests", "responses", "rejected", "errors",
                            "batches", "coalesced", "reloads", "max_batch_seen", "inflight",
                            "queue_depth", "queue_capacity", "max_batch"})
      ASSERT_NE(srv.find(key), nullptr) << "missing server." << key;
    EXPECT_GT(srv.at("requests").as_int(), 0);
    const obs::JsonValue& lanes = srv.at("queue_lanes");
    for (const char* lane : {"low", "normal", "high"})
      ASSERT_NE(lanes.find(lane), nullptr) << "missing queue_lanes." << lane;

    EXPECT_GE(s.at("model").at("generation").as_int(), 1);
    const obs::JsonValue& slo = s.at("slo");
    for (const char* w : {"10s", "1m", "5m"})
      ASSERT_NE(slo.at("windows").find(w), nullptr) << "missing slo window " << w;
    ASSERT_NE(slo.find("budget_remaining"), nullptr);

    // Satellite assertion: per-lane queue-wait histograms and the
    // inflight gauge surface through the registry snapshot.
    const obs::JsonValue& metrics = s.at("metrics");
    ASSERT_NE(metrics.at("histograms").find("serve.latency_us"), nullptr);
    ASSERT_NE(metrics.at("histograms").find("serve.queue_wait_us.normal"), nullptr);
    ASSERT_NE(metrics.at("gauges").find("serve.inflight"), nullptr);
    const obs::JsonValue& lat = metrics.at("histograms").at("serve.latency_us");
    EXPECT_GT(lat.at("count").as_int(), 0);
    EXPECT_LE(lat.at("p50").as_double(), lat.at("p99").as_double());

    ASSERT_NE(s.find("process"), nullptr);
    ASSERT_NE(s.at("process").find("rss_kb"), nullptr);
    ASSERT_TRUE(s.at("recent").is_array());
    ASSERT_GT(s.at("recent").size(), 0u);
    const obs::JsonValue& rec = s.at("recent")[0];
    EXPECT_FALSE(rec.at("request_id").as_string().empty());
    ASSERT_NE(rec.find("phases"), nullptr);
  }

  done.store(true);
  t1.join();
  t2.join();
  server.stop();
}

TEST(Serve, HealthzReportsOverloadAndDegradation) {
  const std::string live = copy_ensemble(artifacts().ensemble_a,
                                         ::testing::TempDir() + "serve_healthz_ens.bin");
  ServeConfig cfg = base_config("healthz", live);
  cfg.queue_capacity = 2;
  cfg.client_queue_cap = 2;  // fill the whole queue from one client
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);

  // Fresh daemon: healthy.
  obs::JsonValue resp = client.admin("healthz");
  ASSERT_TRUE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("health").at("status").as_string(), "ok");
  EXPECT_FALSE(resp.at("health").at("degraded").as_bool());
  EXPECT_FALSE(resp.at("health").at("overloaded").as_bool());

  // Held backlog at capacity: overloaded (admin answers on the I/O
  // loop, so healthz still responds while the worker is paused).
  server.pause_worker();
  const std::string deck = test_decks()[0];
  for (int i = 0; i < 2; ++i) {
    obs::JsonValue req = obs::JsonValue::object();
    req.set("id", static_cast<long long>(i));
    req.set("netlist", deck);
    write_frame(client.fd(), req.dump());
  }
  while (server.stats().requests.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  resp = client.admin("healthz");
  EXPECT_EQ(resp.at("health").at("status").as_string(), "overloaded");
  EXPECT_TRUE(resp.at("health").at("overloaded").as_bool());
  EXPECT_EQ(resp.at("health").at("queue_depth").as_int(), 2);
  server.resume_worker();
  for (int i = 0; i < 2; ++i) {
    std::string payload;
    ASSERT_TRUE(read_frame(client.fd(), &payload));
  }

  // Degraded generation after a corrupt-member reload.
  {
    std::ofstream f(live + ".m1", std::ios::trunc);
    f << "not a model";
  }
  ASSERT_TRUE(client.admin("reload").at("ok").as_bool());
  resp = client.admin("healthz");
  EXPECT_EQ(resp.at("health").at("status").as_string(), "degraded");
  EXPECT_TRUE(resp.at("health").at("degraded").as_bool());
  server.stop();
  std::filesystem::remove(live + ".m0");
  std::filesystem::remove(live + ".m1");
  std::filesystem::remove(live);
}

TEST(Serve, RecentRingRecordsPhasesCoalescingAndErrors) {
  ServeConfig cfg = base_config("recent", artifacts().ensemble_a);
  cfg.max_batch = 8;
  cfg.recent_capacity = 4;
  Server server(cfg);
  server.start();
  server.pause_worker();
  const std::string deck = test_decks()[0];
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  for (int i = 0; i < 2; ++i) {  // identical pair: second coalesces
    obs::JsonValue req = obs::JsonValue::object();
    req.set("id", static_cast<long long>(i));
    req.set("netlist", deck);
    write_frame(client.fd(), req.dump());
  }
  while (server.stats().requests.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.resume_worker();
  for (int i = 0; i < 2; ++i) {
    std::string payload;
    ASSERT_TRUE(read_frame(client.fd(), &payload));
  }
  // A parse failure is retained with its error code.
  const obs::JsonValue bad = client.predict("Zq bogus card\n");
  EXPECT_FALSE(bad.at("ok").as_bool());

  // The response is written before the record lands in the ring; give the
  // worker a beat to finish its terminal accounting.
  auto records = server.recent().snapshot();
  for (int i = 0; i < 200 && records.size() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    records = server.recent().snapshot();
  }
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) EXPECT_FALSE(r.request_id.empty());
  EXPECT_TRUE(records[0].ok);
  EXPECT_FALSE(records[0].coalesced);
  EXPECT_FALSE(records[0].deck.empty());
  EXPECT_GT(records[0].deck_bytes, 0u);
  EXPECT_GT(records[0].phases.total_us, 0.0);
  EXPECT_GT(records[0].phases.predict_us, 0.0);
  EXPECT_TRUE(records[1].coalesced) << "identical deck in the same batch must coalesce";
  EXPECT_FALSE(records[2].ok);
  EXPECT_EQ(records[2].error_code, "parse_error");

  // The ring stays bounded: flood past capacity, oldest evicted.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(client.predict(deck).at("ok").as_bool());
  std::size_t retained = server.recent().snapshot().size();
  for (int i = 0; i < 200 && retained < cfg.recent_capacity; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    retained = server.recent().snapshot().size();
  }
  EXPECT_EQ(retained, cfg.recent_capacity);
  server.stop();
}

// With instrumentation on, a served request's phases land in the one
// phase store every timed scope uses: the time/serve/req/<phase>
// histograms, which the --metrics-out profile view reads.
TEST(Serve, RequestPhasesLandInPhaseHistograms) {
  ServeConfig cfg = base_config("phases", artifacts().ensemble_a);
  const std::string deck = test_decks()[0];  // flat: plan is split out
  const char* const phases[] = {"queue", "parse", "plan", "predict", "serialize"};
  auto& reg = obs::MetricsRegistry::instance();
  auto phase_count = [&](const char* phase) {
    return reg.histogram(std::string("time/serve/req/") + phase).count();
  };
  std::vector<std::size_t> before;
  for (const char* phase : phases) before.push_back(phase_count(phase));

  struct InstrumentationOn {
    const bool was = obs::enabled();
    InstrumentationOn() { obs::set_enabled(true); }
    ~InstrumentationOn() { obs::set_enabled(was); }
  } on;
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  ASSERT_TRUE(client.predict(deck).at("ok").as_bool());
  server.stop();  // joins the worker: the serialize span has landed
  for (std::size_t i = 0; i < std::size(phases); ++i)
    EXPECT_EQ(phase_count(phases[i]), before[i] + 1) << phases[i];
}

TEST(Serve, FlightRecorderMarksRequestLifecycle) {
  obs::FlightRecorder::instance().arm();
  ServeConfig cfg = base_config("flight", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  ASSERT_TRUE(client.predict(test_decks()[0], Priority::kNormal, 0, "fr-probe-1").at("ok").as_bool());
  server.stop();

  bool saw_begin = false, saw_end = false;
  for (const auto& ev : obs::FlightRecorder::instance().snapshot()) {
    if (std::string(ev.component) != "serve.req") continue;
    const std::string msg(ev.message);
    if (msg == "begin fr-probe-1") saw_begin = true;
    if (msg == "end fr-probe-1") saw_end = true;
  }
  obs::FlightRecorder::instance().disarm();
  EXPECT_TRUE(saw_begin) << "admission must leave a begin mark with the request id";
  EXPECT_TRUE(saw_end) << "completion must leave an end mark with the request id";
}

TEST(Serve, InjectedPredictFaultAnswersTypedInternalError) {
  ServeConfig cfg = base_config("fault", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);

  util::fault::configure("serve.predict:1");
  const obs::JsonValue resp = client.predict(test_decks()[0], Priority::kNormal, 0, "fault-req");
  util::fault::configure("");
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "internal");
  EXPECT_EQ(resp.at("request_id").as_string(), "fault-req");

  // The failure is accounted: recent ring names it, SLO counted it bad.
  auto records = server.recent().snapshot();
  for (int i = 0; i < 200 && records.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    records = server.recent().snapshot();
  }
  ASSERT_FALSE(records.empty());
  EXPECT_FALSE(records.back().ok);
  EXPECT_EQ(records.back().error_code, "internal");
  EXPECT_EQ(records.back().request_id, "fault-req");
  const auto w = server.slo().window(10);
  EXPECT_GE(w.total, 1u);
  EXPECT_LT(w.good, w.total);

  // One-shot schedule: the daemon recovers on the next request.
  EXPECT_TRUE(client.predict(test_decks()[0]).at("ok").as_bool());
  server.stop();
}

// ------------------------------------- hostile conditions (DESIGN.md §14)

Job make_client_job(std::int64_t id, const std::string& client,
                    Priority p = Priority::kNormal) {
  Job j = make_job(id, p);
  j.client = client;
  return j;
}

TEST(RequestQueue, RoundRobinAcrossClientsWithinLane) {
  // Deterministic: two identical runs produce the identical service order,
  // and that order interleaves clients instead of draining the flooder.
  const auto run_once = [] {
    RequestQueue q(16);
    ASSERT_EQ(q.push(make_client_job(1, "a")), RequestQueue::PushResult::kOk);
    ASSERT_EQ(q.push(make_client_job(2, "a")), RequestQueue::PushResult::kOk);
    ASSERT_EQ(q.push(make_client_job(3, "a")), RequestQueue::PushResult::kOk);
    ASSERT_EQ(q.push(make_client_job(4, "b")), RequestQueue::PushResult::kOk);
    ASSERT_EQ(q.push(make_client_job(5, "c")), RequestQueue::PushResult::kOk);
    std::vector<std::int64_t> order;
    for (const Job& j : q.pop_batch(16)) order.push_back(j.id);
    // Round-robin a,b,c then a's remaining backlog, FIFO within a client.
    EXPECT_EQ(order, (std::vector<std::int64_t>{1, 4, 5, 2, 3}));
  };
  run_once();
  run_once();
}

TEST(RequestQueue, RoundRobinRespectsPriorityLanesFirst) {
  RequestQueue q(16);
  ASSERT_EQ(q.push(make_client_job(1, "flood", Priority::kNormal)),
            RequestQueue::PushResult::kOk);
  ASSERT_EQ(q.push(make_client_job(2, "flood", Priority::kNormal)),
            RequestQueue::PushResult::kOk);
  ASSERT_EQ(q.push(make_client_job(3, "vip", Priority::kHigh)),
            RequestQueue::PushResult::kOk);
  std::vector<std::int64_t> order;
  for (const Job& j : q.pop_batch(16)) order.push_back(j.id);
  EXPECT_EQ(order, (std::vector<std::int64_t>{3, 1, 2}));  // lane beats fairness
}

TEST(RequestQueue, PerClientCapRejectsOnlyThatClient) {
  RequestQueue q(8, /*client_cap=*/2);
  EXPECT_EQ(q.push(make_client_job(1, "greedy")), RequestQueue::PushResult::kOk);
  EXPECT_EQ(q.push(make_client_job(2, "greedy", Priority::kHigh)),
            RequestQueue::PushResult::kOk);
  // The cap counts across lanes: a third greedy job bounces even though
  // both the queue and its lane have room...
  EXPECT_EQ(q.push(make_client_job(3, "greedy")), RequestQueue::PushResult::kClientFull);
  // ...while other clients are unaffected.
  EXPECT_EQ(q.push(make_client_job(4, "polite")), RequestQueue::PushResult::kOk);
  EXPECT_EQ(q.client_depth("greedy"), 2u);
  // Service releases the budget.
  (void)q.pop_batch(8);
  EXPECT_EQ(q.push(make_client_job(5, "greedy")), RequestQueue::PushResult::kOk);
}

TEST(RequestQueue, TakeExpiredRemovesOnlyExpiredJobs) {
  RequestQueue q(8);
  const auto now = std::chrono::steady_clock::now();
  Job expired1 = make_client_job(1, "a");
  expired1.deadline = now - std::chrono::milliseconds(5);
  Job live = make_client_job(2, "a");  // kNoDeadline
  Job expired2 = make_client_job(3, "b");
  expired2.deadline = now - std::chrono::milliseconds(1);
  ASSERT_EQ(q.push(std::move(expired1)), RequestQueue::PushResult::kOk);
  ASSERT_EQ(q.push(std::move(live)), RequestQueue::PushResult::kOk);
  ASSERT_EQ(q.push(std::move(expired2)), RequestQueue::PushResult::kOk);
  const auto shed = q.take_expired(now);
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0].id, 1);
  EXPECT_EQ(shed[1].id, 3);
  EXPECT_EQ(q.depth(), 1u);
  const auto rest = q.pop_batch(8);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, 2);
}

TEST(Serve, GreedyClientCannotStarvePoliteOne) {
  // One connection, per-request fairness keys: four greedy sends then one
  // polite send, worker paused throughout admission. Round-robin dequeue
  // serves the polite request second, not fifth — and the order is
  // structural, so it is stable on any scheduler.
  ServeConfig cfg = base_config("fair", artifacts().ensemble_a);
  cfg.max_batch = 1;  // service order observable one job at a time
  Server server(cfg);
  server.start();
  server.pause_worker();
  const std::string deck = test_decks()[0];
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  const std::vector<std::pair<int, const char*>> sends = {
      {1, "greedy"}, {2, "greedy"}, {3, "greedy"}, {4, "greedy"}, {5, "polite"}};
  for (const auto& [id, who] : sends) {
    obs::JsonValue req = obs::JsonValue::object();
    req.set("id", static_cast<long long>(id));
    req.set("netlist", deck);
    req.set("client", who);
    write_frame(client.fd(), req.dump());
  }
  while (server.stats().requests.load() < sends.size())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.resume_worker();
  const std::vector<int> expect = {1, 5, 2, 3, 4};
  for (const int want : expect) {
    std::string payload;
    ASSERT_TRUE(read_frame(client.fd(), &payload));
    const auto resp = obs::JsonValue::parse(payload);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->at("id").as_int(), want) << payload;
  }
  server.stop();
}

TEST(Serve, PerClientCapAnswersTypedQueueFull) {
  ServeConfig cfg = base_config("clientcap", artifacts().ensemble_a);
  cfg.queue_capacity = 8;
  cfg.client_queue_cap = 1;
  Server server(cfg);
  server.start();
  server.pause_worker();
  const std::string deck = test_decks()[0];
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  for (int i = 0; i < 2; ++i) {
    obs::JsonValue req = obs::JsonValue::object();
    req.set("id", static_cast<long long>(i));
    req.set("netlist", deck);
    req.set("client", "greedy");
    write_frame(client.fd(), req.dump());
  }
  // The rejection is immediate (worker still paused) and names the
  // fairness cap, distinguishing it from whole-queue exhaustion.
  std::string payload;
  ASSERT_TRUE(read_frame(client.fd(), &payload));
  const auto resp = obs::JsonValue::parse(payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->at("ok").as_bool());
  EXPECT_EQ(resp->at("error").at("code").as_string(), "queue_full");
  EXPECT_NE(resp->at("error").at("message").as_string().find("queue share"),
            std::string::npos);
  EXPECT_EQ(resp->at("id").as_int(), 1);
  // A different fairness key is still admitted.
  obs::JsonValue other = obs::JsonValue::object();
  other.set("id", 7);
  other.set("netlist", deck);
  other.set("client", "polite");
  write_frame(client.fd(), other.dump());
  server.resume_worker();
  for (int got = 0; got < 2; ++got) {
    ASSERT_TRUE(read_frame(client.fd(), &payload));
    EXPECT_TRUE(obs::JsonValue::parse(payload)->at("ok").as_bool()) << payload;
  }
  server.stop();
}

TEST(Serve, ExpiredDeadlineShedsBeforeServiceAndSkipsSlo) {
  ServeConfig cfg = base_config("deadline", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  server.pause_worker();  // the shed must happen with no worker at all
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  obs::JsonValue req = obs::JsonValue::object();
  req.set("id", 42);
  req.set("request_id", "dl-1");
  req.set("netlist", test_decks()[0]);
  req.set("deadline_ms", 1.0);
  write_frame(client.fd(), req.dump());
  // The loop's bounded poll tick sweeps the queue, so the typed answer
  // arrives while the worker is still paused — proof the request was
  // shed before any parse/plan/predict work.
  std::string payload;
  ASSERT_TRUE(read_frame(client.fd(), &payload));
  const auto resp = obs::JsonValue::parse(payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->at("ok").as_bool());
  EXPECT_EQ(resp->at("error").at("code").as_string(), "deadline_exceeded");
  EXPECT_EQ(resp->at("id").as_int(), 42);
  EXPECT_EQ(resp->at("request_id").as_string(), "dl-1");
  // Client-attributed: the shed is in the recent ring but NOT in the SLO
  // windows — the server did nothing wrong. (The answer frame can land
  // before the sweep finishes its accounting; wait the stat in.)
  for (int i = 0; i < 500 && server.stats().deadline_shed.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.stats().deadline_shed.load(), 1u);
  auto records = server.recent().snapshot();
  for (int i = 0; i < 500 && records.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    records = server.recent().snapshot();
  }
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().error_code, "deadline_exceeded");
  EXPECT_EQ(server.slo().window(10).total, 0u);
  server.resume_worker();
  // A generous deadline on a healthy server is a no-op.
  RequestOptions opt;
  opt.deadline_ms = 60000.0;
  EXPECT_TRUE(client.predict(test_decks()[0], opt).at("ok").as_bool());
  server.stop();
}

TEST(Serve, WorkerShedsExpiredJobsAtBatchStart) {
  // Freeze admission with a paused worker, let the deadline lapse, then
  // resume: the worker's own pre-batch sweep (not the loop's tick) must
  // also shed, because a long-running batch can outlast any tick.
  ServeConfig cfg = base_config("batchshed", artifacts().ensemble_a);
  cfg.max_batch = 4;
  Server server(cfg);
  server.start();
  server.pause_worker();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  obs::JsonValue doomed = obs::JsonValue::object();
  doomed.set("id", 1);
  doomed.set("netlist", test_decks()[0]);
  doomed.set("deadline_ms", 40.0);
  write_frame(client.fd(), doomed.dump());
  obs::JsonValue fine = obs::JsonValue::object();
  fine.set("id", 2);
  fine.set("netlist", test_decks()[0]);
  write_frame(client.fd(), fine.dump());
  while (server.stats().requests.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // let it lapse
  server.resume_worker();
  std::string payload;
  ASSERT_TRUE(read_frame(client.fd(), &payload));
  const auto first = obs::JsonValue::parse(payload);
  EXPECT_EQ(first->at("id").as_int(), 1);
  EXPECT_EQ(first->at("error").at("code").as_string(), "deadline_exceeded");
  ASSERT_TRUE(read_frame(client.fd(), &payload));
  const auto second = obs::JsonValue::parse(payload);
  EXPECT_EQ(second->at("id").as_int(), 2);
  EXPECT_TRUE(second->at("ok").as_bool());
  server.stop();
}

TEST(Serve, TcpAuthTokenMatrix) {
  ServeConfig cfg = base_config("auth", artifacts().ensemble_a);
  cfg.tcp_port = 0;
  cfg.auth_token = "s3cret";
  Server server(cfg);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  const std::string deck = test_decks()[0];

  ServeClient tcp = ServeClient::connect_tcp("127.0.0.1", server.tcp_port());
  // No token / wrong token: typed unauthorized, connection survives.
  EXPECT_EQ(tcp.predict(deck).at("error").at("code").as_string(), "unauthorized");
  RequestOptions wrong;
  wrong.auth_token = "nope";
  EXPECT_EQ(tcp.predict(deck, wrong).at("error").at("code").as_string(), "unauthorized");
  // Admin verbs are gated too — stats are not for anonymous TCP peers.
  EXPECT_EQ(tcp.admin("stats").at("error").at("code").as_string(), "unauthorized");
  // Correct token: served, for predict and admin alike.
  RequestOptions right;
  right.auth_token = "s3cret";
  EXPECT_TRUE(tcp.predict(deck, right).at("ok").as_bool());
  EXPECT_TRUE(tcp.admin("stats", 0, "s3cret").at("ok").as_bool());
  // The unix socket is filesystem-permissioned and stays token-free.
  ServeClient unix_client = ServeClient::connect_unix(cfg.socket_path);
  EXPECT_TRUE(unix_client.predict(deck).at("ok").as_bool());
  EXPECT_TRUE(unix_client.admin("stats").at("ok").as_bool());
  // Rejections were accounted under the typed code.
  const auto idx = static_cast<std::size_t>(ErrorCode::kUnauthorized);
  EXPECT_EQ(server.stats().by_error_code[idx].load(), 3u);
  server.stop();
}

TEST(Serve, ConnectionLimitRejectsWithTypedOverloaded) {
  ServeConfig cfg = base_config("connlimit", artifacts().ensemble_a);
  cfg.max_conns = 1;
  Server server(cfg);
  server.start();
  ServeClient first = ServeClient::connect_unix(cfg.socket_path);
  EXPECT_TRUE(first.predict(test_decks()[0]).at("ok").as_bool());
  // The second connection is accepted just long enough to be told why it
  // is being dropped.
  ServeClient second = ServeClient::connect_unix(cfg.socket_path);
  std::string payload;
  ASSERT_TRUE(read_frame(second.fd(), &payload));
  const auto resp = obs::JsonValue::parse(payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->at("error").at("code").as_string(), "overloaded");
  EXPECT_FALSE(read_frame(second.fd(), &payload));  // then closed
  for (int i = 0; i < 500 && server.stats().conn_rejected.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.stats().conn_rejected.load(), 1u);
  // The resident connection is unaffected.
  EXPECT_TRUE(first.predict(test_decks()[0]).at("ok").as_bool());
  server.stop();
}

TEST(Serve, SlowlorisFrameTimesOutAndDisconnects) {
  ServeConfig cfg = base_config("slowloris", artifacts().ensemble_a);
  cfg.io_timeout_ms = 100;
  Server server(cfg);
  server.start();
  ServeClient client = ServeClient::connect_unix(cfg.socket_path);
  // Two header bytes arm the frame deadline; then stall. The server must
  // cut the connection instead of holding it open forever.
  const char torn[2] = {0x10, 0x00};
  ASSERT_EQ(::send(client.fd(), torn, sizeof torn, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof torn));
  std::string payload;
  EXPECT_FALSE(read_frame(client.fd(), &payload));  // EOF: we were dropped
  for (int i = 0; i < 500 && server.stats().io_timeouts.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(server.stats().io_timeouts.load(), 1u);
  // An idle-but-honest connection is NOT a slowloris: no deadline between
  // frames, so a fresh client can sit quietly longer than the timeout.
  ServeClient honest = ServeClient::connect_unix(cfg.socket_path);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(honest.predict(test_decks()[0]).at("ok").as_bool());
  server.stop();
}

// The I/O loop decodes every frame inline, before the auth check, so a
// frame's parse holds every other connection. The probe below waits about
// 80 ms in Release and up to 1.1 s under the sanitizers (TSan); with a
// linear key scan per member the 100k-key frame took 44 s to parse.
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_THREAD__)
constexpr double kWideFrameStallMs = 1000.0;
#else
constexpr double kWideFrameStallMs = 10000.0;
#endif

TEST(Serve, WideFrameDoesNotStallOtherConnections) {
  ServeConfig cfg = base_config("wide", artifacts().ensemble_a);
  Server server(cfg);
  server.start();
  ServeClient wide = ServeClient::connect_unix(cfg.socket_path);
  ServeClient probe = ServeClient::connect_unix(cfg.socket_path);
  ASSERT_TRUE(probe.admin("healthz").at("ok").as_bool());
  obs::JsonValue bomb = obs::JsonValue::object();
  for (int i = 0; i < 100000; ++i) bomb.set(std::to_string(i), 0);
  // Returns once the daemon has read all but a socket buffer of the frame.
  write_frame(wide.fd(), bomb.dump());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(probe.admin("healthz").at("ok").as_bool());
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(ms, kWideFrameStallMs);
  // The wide frame itself is answered: no "netlist", so a typed error.
  std::string payload;
  ASSERT_TRUE(read_frame(wide.fd(), &payload));
  const auto resp = obs::JsonValue::parse(payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->at("error").at("code").as_string(), "bad_request");
  server.stop();
}

TEST(Serve, RetryingClientRetriesIdempotentRejections) {
  ServeConfig cfg = base_config("retry", artifacts().ensemble_a);
  cfg.queue_capacity = 1;
  cfg.client_queue_cap = 1;
  Server server(cfg);
  server.start();
  server.pause_worker();
  // Park one request so every further admission answers queue_full.
  ServeClient blocker = ServeClient::connect_unix(cfg.socket_path);
  obs::JsonValue park = obs::JsonValue::object();
  park.set("id", 1);
  park.set("netlist", test_decks()[0]);
  write_frame(blocker.fd(), park.dump());
  while (server.stats().requests.load() < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1.0;
  policy.max_backoff_ms = 4.0;
  RetryingClient retry = RetryingClient::unix_target(cfg.socket_path, policy);
  RequestOptions opt;
  opt.request_id = "retry-1";
  const obs::JsonValue still_full = retry.predict(test_decks()[0], opt);
  // Budget exhausted against a stuck queue: the last rejection is
  // returned (not thrown), after exactly max_attempts tries.
  EXPECT_EQ(still_full.at("error").at("code").as_string(), "queue_full");
  EXPECT_EQ(retry.attempts_made(), 3);
  EXPECT_EQ(still_full.at("request_id").as_string(), "retry-1");

  server.resume_worker();
  std::string payload;
  ASSERT_TRUE(read_frame(blocker.fd(), &payload));  // parked request answers
  const obs::JsonValue ok = retry.predict(test_decks()[0]);
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_EQ(retry.attempts_made(), 1);
  server.stop();

  // Connect failures are idempotent too: a dead target consumes the whole
  // budget, then surfaces the transport error.
  RetryingClient dead = RetryingClient::unix_target(
      ::testing::TempDir() + "serve_no_such.sock", policy);
  EXPECT_THROW(dead.predict(test_decks()[0]), util::IoError);
  EXPECT_EQ(dead.attempts_made(), 3);
}

TEST(Serve, RetryingClientDropsDeadSocketAfterFinalOverloaded) {
  // A connection-level `overloaded` rejection is followed by the server
  // hanging up. When it lands on the *final* allowed attempt the response
  // is returned to the caller — but the socket underneath is still dead,
  // so the next call must start on a fresh connection instead of throwing
  // a spurious IoError off the stale one. A scripted peer makes the
  // hang-up deterministic (a real connection-limit rejection races the
  // client's write against the server's close).
  const std::string path = ::testing::TempDir() + "serve_retry_ovl.sock";
  ::unlink(path.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  std::thread peer([&] {
    // First connection: read the request, reject `overloaded`, hang up.
    int c = ::accept(lfd, nullptr, nullptr);
    if (c < 0) return;
    std::string payload;
    EXPECT_TRUE(read_frame(c, &payload));
    write_frame(c, make_error_response(0, ErrorCode::kOverloaded, "go away").dump());
    ::close(c);
    // Second connection: serve normally.
    c = ::accept(lfd, nullptr, nullptr);
    if (c < 0) return;
    EXPECT_TRUE(read_frame(c, &payload));
    write_frame(c, make_ok_response(0, 1, false).dump());
    ::close(c);
  });
  RetryPolicy policy;
  policy.max_attempts = 1;  // the rejection is the final attempt
  RetryingClient client = RetryingClient::unix_target(path, policy);
  EXPECT_EQ(client.predict("C1 a b 1f\n").at("error").at("code").as_string(), "overloaded");
  EXPECT_TRUE(client.predict("C1 a b 1f\n").at("ok").as_bool());
  peer.join();
  ::close(lfd);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace paragraph::serve
