// The `paragraph serve` daemon: a resident inference server (DESIGN.md
// §12).
//
// Thread model (the count does not grow with connections):
//   * one I/O loop thread polls the listeners, a self-pipe (the async
//     channel signal handlers, admin commands and the worker write to)
//     and every nonblocking connection; it decodes frames, answers admin
//     commands inline, enqueues prediction jobs, and writes responses;
//   * one worker thread pops micro-batches off the priority queue and
//     hands their encoded responses back through a completion list. A
//     single worker serialises GNN forwards (the runtime pool
//     parallelises *inside* a batch), which keeps PlanCache use race-free
//     and batch results deterministic.
//
// Micro-batching: the worker drains up to max_batch queued jobs at once.
// Within a batch, jobs carrying byte-identical netlists are coalesced
// into one group — parsed once, planned once, predicted once — and every
// job gets its own response from the shared result. Every distinct deck
// parses in one runtime::parallel_for pass, where decks without subckt
// instances also predict (one GraphPlan per deck shared across the
// ensemble members); decks whose parsed netlist has instances then run
// serially through the worker's PlanCache, so repeated subckt templates
// hit memoized plans and embeddings across requests. Responses are
// bit-identical to single-request serving: every group's computation is
// independent and the per-sample kernels are deterministic at any thread
// count.
//
// Reload: SIGHUP (via notify_fd) or the "reload" admin command swaps the
// model generation through ModelRegistry. The worker snapshots the
// bundle once per batch, so in-flight batches always finish on the model
// they started with; a failed reload keeps the old generation serving.
// The first batch of a new generation clears the PlanCache, whose
// embeddings are keyed by the retired models.
//
// Shutdown: SIGTERM/SIGINT (via notify_fd) or the "shutdown" admin
// command close the listeners, queued requests drain through the worker,
// late requests on open connections get a typed `shutting_down` error,
// the loop writes out every answer and closes every connection, then
// stop() removes the socket file.
//
// Hostile conditions (DESIGN.md §14): io_timeout_ms deadlines cut a
// peer stalled mid-frame or on its answers (no thread blocks on one),
// each loop pass (at most 250 ms apart) sweeps expired-deadline jobs out
// of the queue, connection count is bounded (typed `overloaded` past
// max_conns), admission is fair per client key (per-client queue cap +
// deficit-round-robin dequeue within each priority lane), and a TCP
// listener started with an auth token rejects unauthenticated requests
// (`unauthorized`, constant-time compare). The unix socket stays
// token-free.
//
// Telemetry (DESIGN.md §13): every admitted request carries a stable
// request id (client-propagated or server-assigned) and a phase
// breakdown — queue wait, parse, plan, predict, serialize — recorded
// into the metrics registry (always on; serve operations are ms-scale),
// the profiler/trace machinery (when instrumentation is on), a bounded
// recent-requests ring, rolling-window SLO counters, and the crash
// flight recorder. The `stats` admin verb snapshots all of it as a
// paragraph-stats-v1 document; `healthz` answers degraded/overload
// status; `--slow-ms` warn-logs outliers with their breakdown.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gnn/plan_cache.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/registry.h"
#include "serve/telemetry.h"

namespace paragraph::serve {

struct ServeConfig {
  std::string socket_path;     // unix-domain listener (required)
  int tcp_port = -1;           // loopback TCP listener: -1 off, 0 ephemeral
  std::size_t queue_capacity = 64;
  std::size_t max_batch = 8;   // 1 = micro-batching off
  double slow_ms = 0.0;        // >0: warn-log requests slower than this
  double slo_latency_ms = 50.0;  // SLO latency threshold (--slo-p99-ms)
  double slo_target = 0.999;     // SLO availability objective
  std::size_t recent_capacity = 64;  // recent-requests ring size
  // Hostile-conditions knobs (DESIGN.md §14).
  int io_timeout_ms = 5000;    // per-frame socket deadline once a frame
                               // starts; 0 disables (slowloris defense)
  std::size_t max_conns = 256;  // concurrent connections; excess get a
                                // typed `overloaded` rejection
  std::size_t client_queue_cap = 0;  // per-client in-queue cap; 0 = auto
                                     // (half the queue capacity, min 1)
  std::string auth_token;      // non-empty: TCP requests must carry it
                               // (unix socket stays token-free)
  RegistryConfig registry;
};

// Always-on serving counters (plain atomics, independent of the obs
// layer): the stats admin command, the tests, and the bench read these.
struct ServerStats {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> requests{0};   // admitted prediction jobs
  std::atomic<std::uint64_t> responses{0};  // ok frames queued on a live conn
  std::atomic<std::uint64_t> rejected{0};   // queue_full admissions
  std::atomic<std::uint64_t> errors{0};     // error responses of any kind
  std::atomic<std::uint64_t> batches{0};    // worker micro-batches
  std::atomic<std::uint64_t> coalesced{0};  // jobs answered from a dup group
  std::atomic<std::uint64_t> reloads{0};    // successful generation swaps
  std::atomic<std::uint64_t> max_batch_seen{0};
  std::atomic<std::uint64_t> inflight{0};   // jobs popped, not yet answered
  std::atomic<std::uint64_t> io_timeouts{0};     // frames that stalled past
                                                 // io_timeout_ms (read or write)
  std::atomic<std::uint64_t> deadline_shed{0};   // jobs answered deadline_exceeded
  std::atomic<std::uint64_t> conn_rejected{0};   // connections over max_conns
  // Error responses by wire code, indexed by ErrorCode value.
  std::array<std::atomic<std::uint64_t>, kNumErrorCodes> by_error_code{};
};

class Server {
 public:
  explicit Server(ServeConfig config);
  ~Server();

  // Binds the listeners (util::IoError when the socket path or TCP port
  // is taken), loads the initial model generation, and spawns the I/O
  // loop and worker threads. Throws on any failure; a constructed-but-
  // not-started Server needs no stop().
  void start();

  // Blocks until shutdown is requested (signal, admin command, or
  // request_stop from another thread).
  void wait();

  // Drains and tears down: stops admission, answers and writes out the
  // backlog, closes every connection, unlinks the socket file. Idempotent.
  void stop();

  // Async requests, safe from signal handlers via notify_fd().
  void request_stop();
  void request_reload();
  // Write end of the self-pipe: one byte 'H' = reload, 'T' = stop.
  int notify_fd() const { return notify_write_fd_; }

  // Bound TCP port (after start), -1 when TCP is off.
  int tcp_port() const { return bound_tcp_port_; }

  const ServerStats& stats() const { return stats_; }
  ModelRegistry& registry() { return registry_; }
  const ServeConfig& config() const { return config_; }
  // Live telemetry (DESIGN.md §13): also reachable over the wire via the
  // `stats` admin verb; exposed directly for in-process tests.
  const RecentRequests& recent() const { return recent_; }
  const SloTracker& slo() const { return slo_; }

  // Test hook: while paused the queue withholds jobs from the worker, so
  // a test can assemble a deterministic backlog; resume lets it drain
  // (as one micro-batch when the backlog fits max_batch).
  void pause_worker();
  void resume_worker();

 private:
  using Clock = std::chrono::steady_clock;
  struct Conn;   // one client socket's state, owned by the loop thread
  struct Reply;  // one encoded response on its way to the loop

  void bind_unix();
  void bind_tcp();
  void worker_loop();
  void process_batch(std::vector<Job> batch);
  obs::JsonValue stats_json() const;
  obs::JsonValue health_json() const;
  void finish_request(const Job& job, RequestRecord record);
  void do_reload();
  // Encodes `resp` on the calling thread and hands it to the loop for
  // connection `conn`. ok counts it in stats_.responses once it reaches a
  // live connection; hang_up makes it the connection's last frame.
  void reply(std::uint64_t conn, const obs::JsonValue& resp, bool ok = false,
             bool hang_up = false);
  // reply() for a typed error, counted in stats_.errors and per code.
  void send_error(std::uint64_t conn, std::int64_t id, ErrorCode code,
                  const std::string& message, const std::string& rid = std::string(),
                  bool hang_up = false);
  // Answers one job whose deadline passed before work started: typed
  // deadline_exceeded, client-attributed (queue-wait histogram and recent
  // ring recorded; SLO windows and the latency histogram skipped).
  void answer_expired(const Job& job);

  // The I/O loop thread and its steps.
  void io_loop();
  void close_listeners();
  void accept_from(int listen_fd, bool tcp);
  void read_from(Conn& conn, Clock::time_point now);
  void handle_frame(const Conn& conn, std::string_view payload);
  void handle_request(const Conn& conn, const obs::JsonValue& req);
  void handle_admin(std::uint64_t conn, std::int64_t id, const std::string& cmd);
  void deliver(Reply& reply, Clock::time_point now);
  void settle(Conn& conn, Clock::time_point now);

  ServeConfig config_;
  ModelRegistry registry_;
  RequestQueue queue_;
  ServerStats stats_;
  RecentRequests recent_;
  SloTracker slo_;
  gnn::PlanCache plan_cache_;  // worker-thread only
  std::uint64_t plan_cache_generation_ = 0;  // worker-thread only

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  int notify_read_fd_ = -1;
  int notify_write_fd_ = -1;

  std::vector<Conn> conns_;  // loop-thread only

  std::mutex replies_mu_;
  std::vector<Reply> replies_;  // for the loop to write; guarded by replies_mu_

  std::atomic<bool> stop_requested_{false};  // set when the loop closes the listeners
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread worker_;
  std::thread loop_;
};

}  // namespace paragraph::serve
