// Protocol fuzz corpus for the serve wire format (DESIGN.md §14): a
// table of malformed frames — hostile length prefixes, torn frames,
// binary junk, parser bombs, wrong-typed fields — each thrown at a live
// server. The contract under attack: every malformed input gets a typed
// error from the closed code set, the daemon never crashes, and the
// connection survives whenever the stream is still resyncable (only an
// unresyncable framing violation may close it, after a best-effort typed
// answer). Plus socketpair-level unit tests for the deterministic socket
// fault-injection sites the chaos soak leans on.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
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

const std::string& tiny_ensemble_path() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "fuzz_ens.bin";
    auto ds = dataset::build_dataset(21, 0.05);
    core::EnsembleConfig cfg;
    cfg.max_vs_ff = {1.0, 1e4};
    cfg.base.epochs = 1;
    cfg.base.num_layers = 2;
    cfg.base.embed_dim = 8;
    cfg.base.seed = 21;
    cfg.base.scale = 0.05;
    core::CapEnsemble ens(cfg);
    ens.train(ds);
    ens.save(p);
    return p;
  }();
  return path;
}

// One raw frame: 4-byte little-endian length + payload, written verbatim
// (bypassing write_frame so the length can lie).
void send_raw(int fd, std::uint32_t len, const std::string& payload) {
  char hdr[4] = {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
                 static_cast<char>((len >> 16) & 0xff),
                 static_cast<char>((len >> 24) & 0xff)};
  ASSERT_EQ(::send(fd, hdr, 4, MSG_NOSIGNAL), 4);
  if (!payload.empty()) {
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(payload.size()));
  }
}

struct FuzzCase {
  const char* name;
  std::string payload;        // framed with its true length unless len_override
  bool has_len_override = false;
  std::uint32_t len_override = 0;
  // What the typed answer must be; empty = no answer expected (server just
  // closes — torn frames carry nothing to answer to).
  std::string expect_code;
  bool conn_survives = true;
};

std::string depth_bomb() {
  // 100k nested arrays: 200 KB of payload, bounded by the parser's depth
  // cap (128) long before any allocation blowup.
  std::string s(100000, '[');
  s.append(100000, ']');
  return s;
}

// 100k distinct keys and no "netlist": 1.1 MB, far under the frame cap.
// The I/O loop parses it before any field check, so the parse must stay
// linear in the key count.
std::string width_bomb() {
  std::string s = "{";
  for (int i = 0; i < 100000; ++i) s += (i == 0 ? "\"k" : ",\"k") + std::to_string(i) + "\":0";
  return s + "}";
}

TEST(ProtocolFuzz, MalformedFramesGetTypedErrorsAndServerSurvives) {
  ServeConfig cfg;
  cfg.socket_path = ::testing::TempDir() + "fuzz.sock";
  cfg.registry.ensemble_path = tiny_ensemble_path();
  cfg.io_timeout_ms = 500;  // hostile stalls must not pin the test either
  Server server(cfg);
  server.start();

  std::vector<FuzzCase> corpus;
  corpus.push_back({"zero_length_frame", "", false, 0, "bad_request", true});
  corpus.push_back({"huge_length_prefix", "", true, 0x7fffffffu, "bad_request", false});
  corpus.push_back({"not_json", "this is not json", false, 0, "bad_request", true});
  corpus.push_back({"non_utf8_binary", std::string("\xff\xfe\x01\x02\x80 garbage", 10),
                    false, 0, "bad_request", true});
  corpus.push_back({"trailing_garbage", "{\"id\": 1} trailing", false, 0,
                    "bad_request", true});
  corpus.push_back({"depth_bomb", depth_bomb(), false, 0, "bad_request", true});
  corpus.push_back({"width_bomb", width_bomb(), false, 0, "bad_request", true});
  corpus.push_back({"non_object_json", "42", false, 0, "bad_request", true});
  corpus.push_back({"netlist_wrong_type", "{\"id\": 1, \"netlist\": 5}", false, 0,
                    "bad_request", true});
  corpus.push_back({"missing_netlist_and_admin", "{\"id\": 2}", false, 0,
                    "bad_request", true});
  corpus.push_back({"deadline_wrong_type",
                    "{\"id\": 3, \"netlist\": \"C1 a b 1f\\n\", \"deadline_ms\": \"soon\"}",
                    false, 0, "bad_request", true});
  corpus.push_back({"deadline_negative",
                    "{\"id\": 7, \"netlist\": \"C1 a b 1f\\n\", \"deadline_ms\": -5}",
                    false, 0, "bad_request", true});
  // Bounds that would be UB (double->int64 cast) or overflow steady_clock
  // arithmetic if they reached the deadline computation.
  corpus.push_back({"deadline_absurdly_large",
                    "{\"id\": 8, \"netlist\": \"C1 a b 1f\\n\", \"deadline_ms\": 1e300}",
                    false, 0, "bad_request", true});
  corpus.push_back({"deadline_overflows_clock",
                    "{\"id\": 9, \"netlist\": \"C1 a b 1f\\n\", \"deadline_ms\": 1e16}",
                    false, 0, "bad_request", true});
  // Hostile "id": request_id() must saturate, not trip double->int64 UB.
  corpus.push_back({"id_out_of_int64_range", "{\"id\": 1e300}", false, 0,
                    "bad_request", true});
  corpus.push_back({"client_wrong_type",
                    "{\"id\": 4, \"netlist\": \"C1 a b 1f\\n\", \"client\": 7}",
                    false, 0, "bad_request", true});
  corpus.push_back({"client_key_oversized",
                    "{\"id\": 5, \"netlist\": \"C1 a b 1f\\n\", \"client\": \"" +
                        std::string(300, 'k') + "\"}",
                    false, 0, "bad_request", true});
  // The trace id is echoed and retained in telemetry: bounded like the
  // client key, and refused without being echoed back.
  corpus.push_back({"request_id_oversized",
                    "{\"id\": 10, \"netlist\": \"C1 a b 1f\\n\", \"request_id\": \"" +
                        std::string(2000, 'r') + "\"}",
                    false, 0, "bad_request", true});
  corpus.push_back({"bad_priority",
                    "{\"id\": 6, \"netlist\": \"C1 a b 1f\\n\", \"priority\": \"urgent\"}",
                    false, 0, "bad_request", true});

  for (const FuzzCase& fc : corpus) {
    SCOPED_TRACE(fc.name);
    ServeClient client = ServeClient::connect_unix(cfg.socket_path);
    const std::uint32_t len =
        fc.has_len_override ? fc.len_override : static_cast<std::uint32_t>(fc.payload.size());
    send_raw(client.fd(), len, fc.payload);
    if (::testing::Test::HasFatalFailure()) break;
    std::string payload;
    ASSERT_TRUE(read_frame(client.fd(), &payload));
    const auto resp = obs::JsonValue::parse(payload);
    ASSERT_TRUE(resp.has_value()) << payload;
    EXPECT_FALSE(resp->at("ok").as_bool());
    EXPECT_EQ(resp->at("error").at("code").as_string(), fc.expect_code) << payload;
    EXPECT_LT(payload.size(), 1024u) << "a typed answer must not echo oversized input";
    if (fc.conn_survives) {
      // Same connection, well-formed request: still served.
      EXPECT_TRUE(client.admin("stats").at("ok").as_bool());
    } else {
      // Unresyncable: after the best-effort answer the server hangs up.
      EXPECT_FALSE(read_frame(client.fd(), &payload));
    }
  }

  // Torn frames carry no id to answer: the server must just drop them
  // without crashing — truncated header, then truncated payload.
  {
    ServeClient client = ServeClient::connect_unix(cfg.socket_path);
    const char half_header[2] = {0x08, 0x00};
    ASSERT_EQ(::send(client.fd(), half_header, 2, MSG_NOSIGNAL), 2);
    // Close mid-header: the server sees EOF inside the frame and gives up.
  }
  {
    ServeClient client = ServeClient::connect_unix(cfg.socket_path);
    send_raw(client.fd(), 64, "only twelve!");  // promises 64, delivers 12
  }
  // The daemon survives both (fresh connection, real round-trip).
  ServeClient prober = ServeClient::connect_unix(cfg.socket_path);
  EXPECT_TRUE(prober.admin("stats").at("ok").as_bool());
  const obs::JsonValue stats = prober.admin("stats");
  EXPECT_GT(stats.at("stats").at("server").at("errors").as_int(), 0);
  server.stop();
}

// ------------------------------------------------- fault-injection sites

// The socket fault sites fire process-wide, so these unit tests use a
// socketpair and drive protocol.cpp's framed I/O directly: deterministic,
// no server threads to race the hit counter.
struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(ProtocolFault, SockReadSiteThrowsIoError) {
  SocketPair sp;
  write_frame(sp.a, "{\"id\":1}");
  util::fault::configure("sock.read:1");
  std::string payload;
  EXPECT_THROW(read_frame(sp.b, &payload), util::IoError);
  util::fault::configure("");
  // One-shot: the stream itself was never consumed, the frame still reads.
  EXPECT_TRUE(read_frame(sp.b, &payload));
  EXPECT_EQ(payload, "{\"id\":1}");
}

TEST(ProtocolFault, SockWritePartialKeepsFrameIntact) {
  SocketPair sp;
  const std::string msg(4096, 'x');
  util::fault::configure("sock.write.partial:1");
  write_frame(sp.a, msg);  // one send() chunk is halved; the loop recovers
  util::fault::configure("");
  std::string payload;
  ASSERT_TRUE(read_frame(sp.b, &payload));
  EXPECT_EQ(payload, msg);  // byte-identical despite the short write
}

TEST(ProtocolFault, SockResetSiteThrowsBeforeAnyByte) {
  SocketPair sp;
  util::fault::configure("sock.reset:1");
  EXPECT_THROW(write_frame(sp.a, "{\"id\":2}"), util::IoError);
  util::fault::configure("");
  // Nothing hit the wire: the next frame is the first frame.
  write_frame(sp.a, "{\"id\":3}");
  std::string payload;
  ASSERT_TRUE(read_frame(sp.b, &payload));
  EXPECT_EQ(payload, "{\"id\":3}");
}

TEST(ProtocolFault, SockAcceptSiteDropsConnectionButServerSurvives) {
  ServeConfig cfg;
  cfg.socket_path = ::testing::TempDir() + "fuzz_accept.sock";
  cfg.registry.ensemble_path = tiny_ensemble_path();
  Server server(cfg);
  server.start();
  util::fault::configure("sock.accept:1");
  // The doomed connection is accepted and instantly closed; connect()
  // itself succeeds (the backlog took it), the drop shows on first read.
  ServeClient doomed = ServeClient::connect_unix(cfg.socket_path);
  std::string payload;
  EXPECT_FALSE(read_frame(doomed.fd(), &payload));
  util::fault::configure("");
  ServeClient fine = ServeClient::connect_unix(cfg.socket_path);
  EXPECT_TRUE(fine.admin("stats").at("ok").as_bool());
  server.stop();
}

}  // namespace
}  // namespace paragraph::serve
