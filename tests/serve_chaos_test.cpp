// Chaos soak for the serve daemon under hostile conditions (DESIGN.md
// §14): one live server, hammered concurrently by well-behaved clients
// (mixed priorities, deadlines, retry/backoff, authenticated TCP) and by
// attackers (torn frames, slowloris stalls, unauthenticated TCP), while
// a reload thread hot-swaps the model through the SIGHUP self-pipe path
// and a fault thread cycles deterministic socket fault schedules
// (sock.accept / sock.read / sock.write.partial / sock.reset).
//
// Pass criteria — the robustness contract, not a throughput bar:
//   * the process neither crashes nor hangs (ctest TIMEOUT is the hang
//     detector; sanitizer runs layer ASan/UBSan/TSan on top),
//   * every response a good client receives is ok or carries a code from
//     the closed typed set,
//   * no fd leak: /proc/self/fd is back near its starting count after
//     the soak and teardown,
//   * the post-soak stats document is coherent (schema, responses > 0,
//     in-flight drained to zero) and healthz still answers.
//
// PARAGRAPH_CHAOS_SECONDS stretches the soak (default ~5s; the
// sanitizer chaos lane runs 30s+). The socket fault sites fire
// process-wide, so good clients can see their *own* frames fail —
// transport errors are tolerated and reconnected; what is never
// tolerated is a crash, a hang, or an untyped error response.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "circuit/spice_writer.h"
#include "core/ensemble.h"
#include "dataset/dataset.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/errors.h"
#include "util/faultinject.h"

namespace paragraph::serve {
namespace {

constexpr const char* kAuthToken = "chaos-token";

double chaos_seconds() {
  if (const char* env = std::getenv("PARAGRAPH_CHAOS_SECONDS"); env != nullptr) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 5.0;
}

int open_fd_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

struct Artifacts {
  std::string dir;
  std::string ensemble_a;
  std::string ensemble_b;
  std::string live;  // the path the server loads; reloads swap its bytes
  std::vector<std::string> decks;
};

const Artifacts& artifacts() {
  static const Artifacts art = [] {
    Artifacts a;
    a.dir = ::testing::TempDir() + "chaos_artifacts";
    std::filesystem::create_directories(a.dir);
    auto ds = dataset::build_dataset(21, 0.05);
    for (const auto& s : ds.test) a.decks.push_back(circuit::write_spice_string(s.netlist));
    core::EnsembleConfig cfg;
    cfg.max_vs_ff = {1.0, 1e4};
    cfg.base.num_layers = 2;
    cfg.base.embed_dim = 8;
    cfg.base.seed = 21;
    cfg.base.scale = 0.05;
    for (const auto& [epochs, path] : {std::pair<int, std::string*>{1, &a.ensemble_a},
                                       std::pair<int, std::string*>{2, &a.ensemble_b}}) {
      cfg.base.epochs = epochs;
      core::CapEnsemble ens(cfg);
      ens.train(ds);
      *path = a.dir + (epochs == 1 ? "/ens_a.bin" : "/ens_b.bin");
      ens.save(*path);
    }
    a.live = a.dir + "/ens_live.bin";
    for (const char* suffix : {"", ".m0", ".m1"})
      std::filesystem::copy_file(a.ensemble_a + suffix, a.live + suffix,
                                 std::filesystem::copy_options::overwrite_existing);
    return a;
  }();
  return art;
}

// The closed error-code set: any response outside it is a test failure.
bool is_typed_code(const std::string& code) {
  static const std::set<std::string> kCodes = {
      "bad_request",       "parse_error", "queue_full",  "shutting_down",
      "internal",          "overloaded",  "deadline_exceeded", "unauthorized"};
  return kCodes.count(code) > 0;
}

TEST(ServeChaos, SoakSurvivesHostileTrafficFaultsAndReloads) {
  const int fds_before = open_fd_count();
  const auto& art = artifacts();
  ServeConfig cfg;
  cfg.socket_path = ::testing::TempDir() + "chaos.sock";
  cfg.registry.ensemble_path = art.live;
  cfg.tcp_port = 0;
  cfg.auth_token = kAuthToken;  // TCP requires it; unix stays open
  cfg.queue_capacity = 32;
  cfg.max_batch = 8;
  cfg.io_timeout_ms = 200;  // cut stalled peers fast enough to matter
  cfg.max_conns = 64;
  Server server(cfg);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(chaos_seconds()));
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> ok_responses{0}, typed_errors{0}, transport_errors{0};
  std::atomic<std::uint64_t> untyped_responses{0};
  std::atomic<std::uint64_t> attacker_rounds{0}, reloads_done{0};

  // ---- good unix clients: retrying, mixed priorities/deadlines/keys.
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      RetryPolicy policy;
      policy.max_attempts = 3;
      policy.base_backoff_ms = 1.0;
      policy.max_backoff_ms = 8.0;
      policy.jitter_seed = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t);
      RetryingClient client = RetryingClient::unix_target(cfg.socket_path, policy);
      const Priority prios[3] = {Priority::kLow, Priority::kNormal, Priority::kHigh};
      std::uint64_t i = 0;
      while (!done.load(std::memory_order_relaxed)) {
        RequestOptions opt;
        opt.priority = prios[(t + i) % 3];
        opt.client = "good" + std::to_string(t);
        opt.id = static_cast<std::int64_t>(i);
        // Every 5th request carries a deadline; every 20th an absurdly
        // tight one that may legitimately be shed.
        if (i % 5 == 0) opt.deadline_ms = (i % 20 == 0) ? 1.0 : 5000.0;
        try {
          const obs::JsonValue resp =
              client.predict(art.decks[i % art.decks.size()], opt);
          const obs::JsonValue* ok = resp.find("ok");
          if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
            ok_responses.fetch_add(1);
          } else {
            const obs::JsonValue* err = resp.find("error");
            const obs::JsonValue* code =
                err != nullptr && err->is_object() ? err->find("code") : nullptr;
            if (code != nullptr && code->is_string() && is_typed_code(code->as_string()))
              typed_errors.fetch_add(1);
            else
              untyped_responses.fetch_add(1);
          }
        } catch (const util::IoError&) {
          // Injected socket faults hit our side of the wire too; a
          // dropped connection is chaos working as intended.
          transport_errors.fetch_add(1);
        }
        ++i;
      }
    });
  }

  // ---- good TCP client, authenticated.
  threads.emplace_back([&] {
    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.base_backoff_ms = 1.0;
    RetryingClient client =
        RetryingClient::tcp_target("127.0.0.1", server.tcp_port(), policy);
    std::uint64_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      RequestOptions opt;
      opt.auth_token = kAuthToken;
      opt.client = "tcp-good";
      try {
        const obs::JsonValue resp = client.predict(art.decks[i % art.decks.size()], opt);
        const obs::JsonValue* ok = resp.find("ok");
        if (ok != nullptr && ok->is_bool() && ok->as_bool())
          ok_responses.fetch_add(1);
        else
          typed_errors.fetch_add(1);
      } catch (const util::IoError&) {
        transport_errors.fetch_add(1);
      }
      ++i;
    }
  });

  // ---- unauthenticated TCP attacker: must always bounce, typed.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      try {
        ServeClient c = ServeClient::connect_tcp("127.0.0.1", server.tcp_port());
        const obs::JsonValue resp = c.predict(art.decks[0]);
        const obs::JsonValue* err = resp.find("error");
        const obs::JsonValue* code =
            err != nullptr && err->is_object() ? err->find("code") : nullptr;
        if (code == nullptr || !code->is_string() || !is_typed_code(code->as_string()))
          untyped_responses.fetch_add(1);
      } catch (const util::IoError&) {
        // accept-site fault or conn limit: fine.
      }
      attacker_rounds.fetch_add(1);
    }
  });

  // ---- torn-frame attacker: garbage, lying lengths, mid-frame hangups.
  threads.emplace_back([&] {
    std::uint64_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      try {
        ServeClient c = ServeClient::connect_unix(cfg.socket_path);
        switch (i % 3) {
          case 0: {  // length promises more than is ever sent, then hangup
            const char frame[6] = {0x40, 0x00, 0x00, 0x00, 'h', 'i'};
            (void)!::send(c.fd(), frame, sizeof frame, MSG_NOSIGNAL);
            break;
          }
          case 1: {  // non-JSON payload, correctly framed
            write_frame(c.fd(), "\xff\xfe not json at all");
            std::string payload;
            (void)read_frame(c.fd(), &payload);
            break;
          }
          case 2: {  // half a header, then hangup mid-frame
            const char half[2] = {0x10, 0x00};
            (void)!::send(c.fd(), half, sizeof half, MSG_NOSIGNAL);
            break;
          }
        }
      } catch (const util::IoError&) {
      }
      attacker_rounds.fetch_add(1);
      ++i;
    }
  });

  // ---- slowloris: arm the frame deadline, then stall past it.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      try {
        ServeClient c = ServeClient::connect_unix(cfg.socket_path);
        const char torn[2] = {0x08, 0x00};
        (void)!::send(c.fd(), torn, sizeof torn, MSG_NOSIGNAL);
        std::string payload;
        (void)read_frame(c.fd(), &payload);  // blocks until the server cuts us
      } catch (const util::IoError&) {
      }
      attacker_rounds.fetch_add(1);
    }
  });

  // ---- reload thread: swap generations through the SIGHUP pipe path.
  threads.emplace_back([&] {
    bool to_b = true;
    while (!done.load(std::memory_order_relaxed)) {
      const std::string& src = to_b ? art.ensemble_b : art.ensemble_a;
      for (const char* suffix : {".m0", ".m1", ""})
        std::filesystem::copy_file(src + suffix, art.live + suffix,
                                   std::filesystem::copy_options::overwrite_existing);
      server.request_reload();  // same self-pipe byte SIGHUP writes
      reloads_done.fetch_add(1);
      to_b = !to_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  });

  // ---- fault thread: cycle deterministic socket fault schedules.
  threads.emplace_back([&] {
    const char* schedules[] = {"sock.accept:3",        "sock.read:5", "",
                               "sock.write.partial:2", "sock.reset:4", ""};
    std::size_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      util::fault::configure(schedules[i++ % (sizeof schedules / sizeof *schedules)]);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    util::fault::configure("");
  });

  while (std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done.store(true);
  for (auto& t : threads) t.join();
  util::fault::configure("");  // belt and braces: never leak a schedule

  // ---- the contract.
  EXPECT_GT(ok_responses.load(), 0u) << "good clients must make real progress";
  EXPECT_GT(attacker_rounds.load(), 0u) << "the attackers must actually have run";
  EXPECT_EQ(untyped_responses.load(), 0u)
      << "every error a client is shown must come from the closed typed set";

  // Post-soak, with the chaos off, the daemon serves normally...
  ServeClient probe = ServeClient::connect_unix(cfg.socket_path);
  EXPECT_TRUE(probe.predict(art.decks[0]).at("ok").as_bool());
  EXPECT_TRUE(probe.admin("healthz").at("ok").as_bool());
  // ...and its stats document is coherent: schema intact, every request
  // accounted, nothing STUCK in flight. Requests abandoned mid-soak
  // (their client hung up) may still be draining through the worker when
  // the hammers stop — admin answers come from the I/O loop, not the
  // queue — so the drain gets a bounded grace period; what must never
  // happen is inflight failing to reach zero at all.
  obs::JsonValue stats = probe.admin("stats").at("stats");
  for (int i = 0; i < 500; ++i) {
    const obs::JsonValue& s = stats.at("server");
    if (s.at("inflight").as_int() == 0 && s.at("queue_depth").as_int() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = probe.admin("stats").at("stats");
  }
  EXPECT_EQ(stats.at("schema").as_string(), "paragraph-stats-v1");
  const obs::JsonValue& srv = stats.at("server");
  EXPECT_GT(srv.at("responses").as_int(), 0);
  EXPECT_EQ(srv.at("inflight").as_int(), 0) << "a request is stuck in flight";
  EXPECT_EQ(srv.at("queue_depth").as_int(), 0) << "the queue failed to drain";
  EXPECT_GE(srv.at("reloads").as_int(), 1);
  EXPECT_TRUE(srv.find("error_codes") != nullptr);
  std::printf("chaos soak: %.1fs ok=%llu typed_errors=%llu transport=%llu "
              "attacker_rounds=%llu reloads=%llu io_timeouts=%llu\n",
              chaos_seconds(),
              static_cast<unsigned long long>(ok_responses.load()),
              static_cast<unsigned long long>(typed_errors.load()),
              static_cast<unsigned long long>(transport_errors.load()),
              static_cast<unsigned long long>(attacker_rounds.load()),
              static_cast<unsigned long long>(reloads_done.load()),
              static_cast<unsigned long long>(server.stats().io_timeouts.load()));

  server.stop();

  // ---- fd hygiene: everything the soak opened is closed again by the
  // time stop() returns. Slack covers allocator/proc churn.
  const int fds_after = open_fd_count();
  EXPECT_LE(fds_after, fds_before + 4)
      << "fd leak: " << fds_before << " open before the soak, " << fds_after << " after";
}

}  // namespace
}  // namespace paragraph::serve
