#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "circuit/spice_parser.h"
#include "graph/hetero_graph.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "util/bytes.h"
#include "util/errors.h"
#include "util/faultinject.h"

namespace paragraph::serve {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void write_byte(int fd, char c) {
  if (fd >= 0) (void)!::write(fd, &c, 1);
}

std::int64_t request_id(const obs::JsonValue& req) {
  const obs::JsonValue* id = req.find("id");
  return id != nullptr && id->is_number() ? id->as_int() : 0;
}

// Effective per-client in-queue cap: explicit when configured, otherwise
// half the queue so one client can never own the whole backlog but a
// lone client still gets useful batching depth.
std::size_t effective_client_cap(const ServeConfig& c) {
  if (c.client_queue_cap != 0) return c.client_queue_cap;
  const std::size_t cap = c.queue_capacity != 0 ? c.queue_capacity : 1;
  return cap / 2 != 0 ? cap / 2 : 1;
}

// Write cap for a hang-up frame (`overloaded`, framing errors): the peer
// may be part of the problem.
constexpr std::chrono::milliseconds kHangUpWriteCap{250};

// Longest client-chosen key ("client", "request_id"): both are retained.
constexpr std::size_t kMaxKeyBytes = 128;

// Largest accepted deadline_ms (one hour). Keeps the double->int64 cast
// and the steady_clock addition far from overflow territory.
constexpr double kMaxDeadlineMs = 3.6e6;

std::chrono::steady_clock::time_point deadline_after(std::chrono::steady_clock::time_point now,
                                                     int timeout_ms) {
  return timeout_ms > 0 ? now + std::chrono::milliseconds(timeout_ms) : kNoDeadline;
}

// The request's trace id: client-propagated "request_id" when present,
// server-assigned "r<N>" otherwise.
std::string resolve_request_id(const obs::JsonValue& req) {
  const obs::JsonValue* rid = req.find("request_id");
  if (rid != nullptr && rid->is_string() && !rid->as_string().empty()) return rid->as_string();
  return next_request_id();
}

double us_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

std::int64_t wall_ms_now() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Request begin/end markers for the crash flight recorder: a dump whose
// ring holds a "begin <rid>" without a matching "end <rid>" names a
// request that was in flight when the process died.
void flight_mark(const std::string& rid, const char* what) {
  auto& recorder = obs::FlightRecorder::instance();
  if (recorder.armed())
    recorder.record(obs::FlightEvent::Kind::kLog,
                    static_cast<std::uint8_t>(obs::LogLevel::kInfo), "serve.req",
                    std::string(what) + " " + rid);
}

// One per-request phase span: feeds the Chrome trace (named by request
// id, so a trace view shows each request's lifeline) and the
// "time/serve/req/<phase>" histogram. Instrumentation-gated like every
// other span in the tree — the always-on surfaces are the serve.*
// histograms and the ring.
void span(const std::string& rid, const char* phase, double dur_us) {
  if (!obs::enabled()) return;
  obs::record_phase(std::string("serve/req/") + phase, dur_us);
  auto& trace = obs::TraceCollector::instance();
  if (trace.enabled())
    trace.add_complete("req " + rid + " " + phase, "serve",
                       obs::now_us() - static_cast<std::int64_t>(dur_us),
                       static_cast<std::int64_t>(dur_us));
}

// Predictions keyed by node name for one target, in predict_all order
// (type slot, then node) — the same order `paragraph predict` prints.
obs::JsonValue named_predictions(const dataset::Sample& sample, dataset::TargetKind target,
                                 const std::vector<float>& preds) {
  obs::JsonValue out = obs::JsonValue::object();
  std::size_t k = 0;
  for (const auto nt : dataset::target_node_types(target))
    for (std::size_t i = 0; i < sample.graph.num_nodes(nt) && k < preds.size(); ++i)
      out.set(dataset::node_name(sample, nt, i), static_cast<double>(preds[k++]));
  return out;
}

}  // namespace

// One client connection: plain state that only the loop thread touches.
struct Server::Conn {
  std::uint64_t id = 0;
  int fd = -1;       // -1 once closed; erased at the end of the pass
  std::string name;  // "conn<id>": log name and default fairness key
  bool tcp = false;
  std::string in = {};  // received bytes not yet decoded into frames
  Clock::time_point read_by = kNoDeadline;  // armed by a frame's first byte
  std::string out = {};  // encoded frames; out[0, sent) is on the wire
  std::size_t sent = 0;
  Clock::time_point write_by = kNoDeadline;  // armed while `out` is non-empty
  bool hang_up = false;  // read no more; close once `out` is written
};

struct Server::Reply {
  std::uint64_t conn = 0;
  std::string frame;  // empty when there is nothing to write
  bool ok = false;
  bool hang_up = false;
};

// -------------------------------------------------------------------- Server

Server::Server(ServeConfig config)
    : config_(std::move(config)),
      registry_(config_.registry),
      queue_(config_.queue_capacity, effective_client_cap(config_)),
      recent_(config_.recent_capacity),
      slo_(SloTracker::Config{config_.slo_latency_ms, config_.slo_target}) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.max_conns == 0) config_.max_conns = 1;
  if (config_.io_timeout_ms < 0) config_.io_timeout_ms = 0;
  config_.client_queue_cap = queue_.client_cap();  // echo the effective value
}

Server::~Server() { stop(); }

void Server::bind_unix() {
  if (config_.socket_path.empty())
    throw std::invalid_argument("serve: --socket PATH is required");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof addr.sun_path)
    throw std::invalid_argument("serve: socket path too long: " + config_.socket_path);
  std::strncpy(addr.sun_path, config_.socket_path.c_str(), sizeof addr.sun_path - 1);

  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (unix_fd_ < 0)
    throw util::IoError(std::string("serve: cannot create unix socket: ") + std::strerror(errno));
  if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno == EADDRINUSE) {
      // A leftover socket file from a crashed server binds the path even
      // though nothing listens. Probe it: a refused connect means stale,
      // so reclaim; a successful connect means a live server owns it.
      const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      const bool live =
          probe >= 0 && ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
      if (probe >= 0) ::close(probe);
      if (!live && ::unlink(config_.socket_path.c_str()) == 0 &&
          ::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
        obs::log_warn("serve", "reclaimed stale socket file", {{"path", config_.socket_path}});
      } else {
        close_fd(unix_fd_);
        throw util::IoError("serve: socket path '" + config_.socket_path +
                            "' is in use by another server");
      }
    } else {
      const int err = errno;
      close_fd(unix_fd_);
      throw util::IoError("serve: cannot bind '" + config_.socket_path +
                          "': " + std::strerror(err));
    }
  }
  if (::listen(unix_fd_, 64) != 0) {
    const int err = errno;
    close_fd(unix_fd_);
    throw util::IoError(std::string("serve: listen failed: ") + std::strerror(err));
  }
}

void Server::bind_tcp() {
  if (config_.tcp_port < 0) return;
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (tcp_fd_ < 0)
    throw util::IoError(std::string("serve: cannot create TCP socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(tcp_fd_, 64) != 0) {
    const int err = errno;
    close_fd(tcp_fd_);
    throw util::IoError("serve: cannot bind TCP port " + std::to_string(config_.tcp_port) +
                        ": " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    bound_tcp_port_ = ntohs(bound.sin_port);
}

void Server::start() {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0)
    throw util::IoError(std::string("serve: cannot create notify pipe: ") + std::strerror(errno));
  notify_read_fd_ = pipe_fds[0];
  notify_write_fd_ = pipe_fds[1];
  try {
    bind_unix();
    bind_tcp();
    registry_.load_initial();
  } catch (...) {
    close_fd(unix_fd_);
    close_fd(tcp_fd_);
    close_fd(notify_read_fd_);
    close_fd(notify_write_fd_);
    throw;
  }
  // Serve-level instruments are always on (not gated on obs::enabled()):
  // requests are milliseconds-scale, so the registry cost is noise, and
  // the `stats` admin verb must answer on any daemon, not only ones
  // started with --metrics-out.
  {
    auto& reg = obs::MetricsRegistry::instance();
    reg.gauge("serve.queue_capacity").set(static_cast<double>(queue_.capacity()));
    reg.gauge("serve.max_batch").set(static_cast<double>(config_.max_batch));
    reg.gauge("ensemble.degraded").set(registry_.current()->degraded ? 1.0 : 0.0);
  }
  worker_ = std::thread([this] { worker_loop(); });
  loop_ = std::thread([this] { io_loop(); });
  started_.store(true, std::memory_order_release);
  obs::log_info("serve", "listening",
                {{"socket", config_.socket_path},
                 {"tcp_port", bound_tcp_port_},
                 {"queue_capacity", queue_.capacity()},
                 {"max_batch", config_.max_batch},
                 {"generation", static_cast<unsigned long long>(
                                    registry_.current()->generation)},
                 {"degraded", registry_.current()->degraded}});
}

void Server::wait() { stop_requested_.wait(false); }

void Server::request_stop() { write_byte(notify_write_fd_, 'T'); }

void Server::request_reload() { write_byte(notify_write_fd_, 'H'); }

void Server::pause_worker() { queue_.set_paused(true); }

void Server::resume_worker() { queue_.set_paused(false); }

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    // A concurrent stop() is already tearing down; just wait for it.
    wait();
    return;
  }
  request_stop();
  // Drain: no new admissions (late frames on open connections get
  // `shutting_down` errors), the worker answers everything queued, then
  // the loop writes out every answer, closes every connection and exits.
  queue_.close();
  worker_.join();
  write_byte(notify_write_fd_, 'D');
  loop_.join();
  close_fd(notify_read_fd_);
  close_fd(notify_write_fd_);
  ::unlink(config_.socket_path.c_str());
  started_.store(false, std::memory_order_release);
  obs::log_info("serve", "stopped",
                {{"responses", stats_.responses.load()}, {"errors", stats_.errors.load()}});
}

void Server::do_reload() {
  if (registry_.reload()) stats_.reloads.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------------- I/O loop

void Server::io_loop() {
  std::vector<pollfd> fds;
  bool draining = false;  // every job is answered: write out, close, return
  try {
    while (!draining || !conns_.empty()) {
      // Slots 0-2: the self-pipe and the listeners (poll skips a closed
      // listener's -1); slot 3 + i: conns_[i].
      fds = {{notify_read_fd_, POLLIN, 0}, {unix_fd_, POLLIN, 0}, {tcp_fd_, POLLIN, 0}};
      // The wait is capped so the expired-deadline sweep runs at least every 250 ms.
      Clock::time_point wake = Clock::now() + std::chrono::milliseconds(250);
      for (const Conn& c : conns_) {
        // A peer that leaves a frame's worth of answers unread is not read
        // until it catches up, so its output cannot grow without bound.
        const bool reading = !c.hang_up && c.out.size() - c.sent < kMaxFrameBytes;
        const int events = (reading ? POLLIN : 0) | (c.out.empty() ? 0 : POLLOUT);
        fds.push_back({c.fd, static_cast<short>(events), 0});
        wake = std::min({wake, c.read_by, c.write_by});
      }
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(wake - Clock::now()).count();
      if (::poll(fds.data(), fds.size(), static_cast<int>(std::max<std::int64_t>(wait, 0))) < 0) {
        if (errno == EINTR) continue;
        throw util::IoError(std::string("serve: poll failed: ") + std::strerror(errno));
      }
      if ((fds[0].revents & POLLIN) != 0) {
        char buf[64];
        const ssize_t n = ::read(notify_read_fd_, buf, sizeof buf);
        for (ssize_t i = 0; i < n; ++i) {  // 'W' (replies waiting) needs no action
          if (buf[i] == 'H') do_reload();
          if (buf[i] == 'T') close_listeners();
          if (buf[i] == 'D') draining = true;  // the worker has exited
        }
      }
      const auto now = Clock::now();
      for (std::size_t i = 0; i + 3 < fds.size(); ++i)
        if ((fds[i + 3].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !conns_[i].hang_up)
          read_from(conns_[i], now);
      if ((fds[1].revents & POLLIN) != 0) accept_from(unix_fd_, false);
      if ((fds[2].revents & POLLIN) != 0) accept_from(tcp_fd_, true);
      for (const Job& job : queue_.take_expired(now)) answer_expired(job);

      std::vector<Reply> replies;
      {
        std::lock_guard<std::mutex> lock(replies_mu_);
        replies.swap(replies_);
      }
      for (Reply& r : replies) deliver(r, now);
      for (Conn& c : conns_) {
        if (draining) c.hang_up = true;
        settle(c, now);
      }
      std::erase_if(conns_, [](const Conn& c) { return c.fd < 0; });
    }
  } catch (const std::exception& e) {
    obs::log_error("serve", "I/O loop failed", {{"error", e.what()}});
  }
  for (Conn& c : conns_) close_fd(c.fd);
  conns_.clear();
  close_listeners();
}

void Server::close_listeners() {
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  stop_requested_.store(true);
  stop_requested_.notify_all();
}

void Server::accept_from(int listen_fd, bool tcp) {
  for (int fd; (fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0;) {
    // Fault site sock.accept: the client vanished between connect and
    // first frame — the daemon just moves on.
    if (util::fault::should_fail("sock.accept")) {
      ::close(fd);
      continue;
    }
    const auto live = std::ranges::count(conns_, false, &Conn::hang_up);
    const std::uint64_t id = stats_.connections.fetch_add(1, std::memory_order_relaxed) + 1;
    conns_.push_back({.id = id, .fd = fd, .name = "conn" + std::to_string(id), .tcp = tcp});
    if (static_cast<std::size_t>(live) < config_.max_conns) continue;
    // Over the connection bound: answer `overloaded` and hang up. The
    // typed rejection is what lets a well-behaved client back off.
    stats_.conn_rejected.fetch_add(1, std::memory_order_relaxed);
    send_error(id, 0, ErrorCode::kOverloaded,
               "too many connections (" + std::to_string(config_.max_conns) +
                   "); retry with backoff",
               std::string(), /*hang_up=*/true);
  }
}

void Server::read_from(Conn& c, Clock::time_point now) {
  try {
    const bool idle = c.in.empty();
    char buf[64 * 1024];
    ssize_t n = 0;
    do {  // drain the socket, so a large frame takes few passes
      // Fault site sock.read: a connection reset before each read.
      if (util::fault::should_fail("sock.read"))
        throw util::IoError("serve: socket read failed: injected connection reset");
      n = ::read(c.fd, buf, sizeof buf);
      if (n > 0) c.in.append(buf, static_cast<std::size_t>(n));
    } while (n == static_cast<ssize_t>(sizeof buf) && c.in.size() < kMaxFrameBytes);
    if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
      throw util::IoError(std::string("serve: socket read failed: ") + std::strerror(errno));
    std::size_t used = 0;  // bytes of the complete frames handled below
    while (c.in.size() - used >= kFrameHeaderBytes) {
      const std::size_t len = decode_frame_header(c.in.data() + used);
      if (c.in.size() - used - kFrameHeaderBytes < len) break;
      handle_frame(c, std::string_view(c.in).substr(used + kFrameHeaderBytes, len));
      used += kFrameHeaderBytes + len;
    }
    c.in.erase(0, used);
    if (n == 0 && !c.in.empty()) throw FrameError("serve: connection closed mid-frame");
    if (n == 0)
      c.hang_up = true;  // clean EOF between frames
    else if (c.in.empty())
      c.read_by = kNoDeadline;
    else if (idle || used > 0)  // a new frame has started
      c.read_by = deadline_after(now, config_.io_timeout_ms);
  } catch (const FrameError& e) {
    // Framing is unrecoverable (no boundary to resync on): answer a
    // best-effort typed error so the peer learns why, then hang up.
    send_error(c.id, 0, ErrorCode::kBadRequest, e.what(), std::string(), /*hang_up=*/true);
  } catch (const std::exception& e) {
    obs::log_debug("serve", "connection dropped", {{"conn", c.name}, {"error", e.what()}});
    close_fd(c.fd);
  }
}

void Server::handle_frame(const Conn& c, std::string_view payload) {
  std::string err;
  const auto req = obs::JsonValue::parse(payload, &err);
  if (!req || !req->is_object()) {
    send_error(c.id, 0, ErrorCode::kBadRequest, "malformed JSON: " + err);
    return;
  }
  // Auth gates every request on an authenticated TCP listener — admin
  // verbs included (shutdown over an open port must not be free). The
  // unix socket is guarded by filesystem permissions instead.
  if (c.tcp && !config_.auth_token.empty()) {
    const obs::JsonValue* tok = req->find("auth_token");
    const obs::JsonValue* rid = req->find("request_id");
    if (tok == nullptr || !tok->is_string() ||
        !token_equal_consttime(tok->as_string(), config_.auth_token)) {
      send_error(c.id, request_id(*req), ErrorCode::kUnauthorized,
                 "missing or invalid auth_token",
                 rid != nullptr && rid->is_string() ? rid->as_string() : std::string());
      return;
    }
  }
  const obs::JsonValue* admin = req->find("admin");
  if (admin != nullptr && admin->is_string())
    handle_admin(c.id, request_id(*req), admin->as_string());
  else
    handle_request(c, *req);
}

void Server::deliver(Reply& r, Clock::time_point now) {
  const auto it = std::ranges::find(conns_, r.conn, &Conn::id);
  if (it == conns_.end() || it->fd < 0) return;  // the connection has gone: dropped
  Conn& c = *it;
  // Fault site sock.reset: the connection resets before a frame's first byte.
  if (!r.frame.empty() && util::fault::should_fail("sock.reset")) {
    obs::log_debug("serve", "response dropped, injected connection reset", {{"conn", c.name}});
    close_fd(c.fd);
    return;
  }
  if (c.out.empty()) c.write_by = deadline_after(now, config_.io_timeout_ms);
  c.out.erase(0, std::exchange(c.sent, 0));
  c.out += r.frame;
  if (r.ok) stats_.responses.fetch_add(1, std::memory_order_relaxed);
  if (r.hang_up) {
    c.hang_up = true;
    c.write_by = std::min(c.write_by, now + kHangUpWriteCap);
  }
}

// Writes what the socket takes, then enforces the deadlines and hang-ups.
void Server::settle(Conn& c, Clock::time_point now) {
  if (!c.out.empty()) {
    std::size_t chunk = c.out.size() - c.sent;
    // Fault site sock.write.partial: the rest goes out on a later pass.
    if (chunk > 1 && util::fault::should_fail("sock.write.partial")) chunk /= 2;
    // MSG_NOSIGNAL: a peer that hung up is EPIPE, not a SIGPIPE that kills us.
    const ssize_t n = ::send(c.fd, c.out.data() + c.sent, chunk, MSG_NOSIGNAL);
    if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      obs::log_debug("serve", "response dropped, peer gone",
                     {{"conn", c.name}, {"error", std::strerror(errno)}});
      close_fd(c.fd);
      return;
    }
    if (n > 0) {
      c.sent += static_cast<std::size_t>(n);
      // Progress re-arms the write deadline; a hang-up's cap is absolute.
      if (!c.hang_up) c.write_by = deadline_after(now, config_.io_timeout_ms);
    }
    if (c.sent == c.out.size()) {
      std::string().swap(c.out);  // frees a large answer's buffer
      c.sent = 0;
      c.write_by = kNoDeadline;
    }
  }
  if (now >= c.read_by || now >= c.write_by) {
    // A frame stalled mid-read (slowloris) or the peer stopped reading.
    stats_.io_timeouts.fetch_add(1, std::memory_order_relaxed);
    obs::log_warn("serve", now >= c.read_by ? "connection timed out mid-frame"
                                            : "connection timed out mid-response",
                  {{"conn", c.name}});
    close_fd(c.fd);
  } else if (c.hang_up && c.out.empty()) {
    close_fd(c.fd);
  }
}

void Server::handle_request(const Conn& conn, const obs::JsonValue& req) {
  const std::int64_t id = request_id(req);
  const std::string rid = resolve_request_id(req);
  if (rid.size() > kMaxKeyBytes) {  // bounded like the fairness key, and not echoed
    send_error(conn.id, id, ErrorCode::kBadRequest, "request_id must be at most 128 bytes");
    return;
  }
  const obs::JsonValue* netlist = req.find("netlist");
  if (netlist == nullptr || !netlist->is_string()) {
    send_error(conn.id, id, ErrorCode::kBadRequest,
               "request needs a string \"netlist\" (or \"admin\") field", rid);
    return;
  }
  Priority priority = Priority::kNormal;
  if (const obs::JsonValue* p = req.find("priority"); p != nullptr) {
    if (!p->is_string() || !parse_priority(p->as_string(), &priority)) {
      send_error(conn.id, id, ErrorCode::kBadRequest,
                 "priority must be \"low\", \"normal\", or \"high\"", rid);
      return;
    }
  }
  Job job;
  job.id = id;
  job.request_id = rid;
  job.priority = priority;
  job.client = conn.name;
  if (const obs::JsonValue* c = req.find("client"); c != nullptr) {
    // Bounded so a hostile stream of huge keys cannot bloat queue state.
    if (!c->is_string() || c->as_string().empty() || c->as_string().size() > kMaxKeyBytes) {
      send_error(conn.id, id, ErrorCode::kBadRequest,
                 "client must be a non-empty string of at most 128 bytes", rid);
      return;
    }
    job.client = c->as_string();
  }
  job.netlist_text = netlist->as_string();
  job.netlist_hash = util::fnv1a64(job.netlist_text);
  job.conn = conn.id;
  job.enqueued_at = std::chrono::steady_clock::now();
  if (const obs::JsonValue* d = req.find("deadline_ms"); d != nullptr) {
    // Bounded above as well as below: a huge value (1e300) would make the
    // double->int64 cast undefined behavior, and even in-int64-range
    // values (1e16 ms) overflow steady_clock's nanosecond rep when added
    // to enqueued_at, wrapping the deadline into the past. Anything past
    // an hour is not a per-request serving deadline. The negated
    // comparison also rejects NaN (every NaN compare is false).
    if (!d->is_number() || !(d->as_double() > 0.0) || d->as_double() > kMaxDeadlineMs) {
      send_error(conn.id, id, ErrorCode::kBadRequest,
                 "deadline_ms must be a number in (0, " +
                     std::to_string(static_cast<std::int64_t>(kMaxDeadlineMs)) + "]",
                 rid);
      return;
    }
    job.deadline = job.enqueued_at +
                   std::chrono::milliseconds(static_cast<std::int64_t>(d->as_double()));
  }
  static obs::Counter& requests_c = obs::MetricsRegistry::instance().counter("serve.requests");
  static obs::Counter& rejected_c = obs::MetricsRegistry::instance().counter("serve.rejected");
  static obs::Gauge& depth_g = obs::MetricsRegistry::instance().gauge("serve.queue_depth");
  const std::string client = job.client;  // job is moved into the queue
  flight_mark(rid, "begin");  // before the push: the worker may crash on the job first
  const RequestQueue::PushResult pushed = queue_.push(std::move(job));
  switch (pushed) {
    case RequestQueue::PushResult::kOk:
      stats_.requests.fetch_add(1, std::memory_order_relaxed);
      requests_c.add();
      depth_g.set(static_cast<double>(queue_.depth()));
      break;
    case RequestQueue::PushResult::kFull:
    case RequestQueue::PushResult::kClientFull:
      stats_.rejected.fetch_add(1, std::memory_order_relaxed);
      rejected_c.add();
      // A shed request spent the whole error budget it was given: the SLO
      // window counts it as unavailability, not as fast failure.
      slo_.record(false, 0.0);
      flight_mark(rid, "end queue_full");
      // One wire code for a full queue and a full client share — the
      // caller's remedy (back off) is identical — but the message names
      // the fairness cap so a flooder's logs explain why the queue
      // "looked" full to it alone.
      send_error(conn.id, id, ErrorCode::kQueueFull,
                 (pushed == RequestQueue::PushResult::kFull
                      ? "queue at capacity (" + std::to_string(queue_.capacity())
                      : "client '" + client + "' is at its queue share (" +
                            std::to_string(queue_.client_cap()) + " of " +
                            std::to_string(queue_.capacity())) +
                     "); retry with backoff",
                 rid);
      break;
    case RequestQueue::PushResult::kClosed:
      slo_.record(false, 0.0);
      flight_mark(rid, "end shutting_down");
      send_error(conn.id, id, ErrorCode::kShuttingDown, "server is draining", rid);
      break;
  }
}

void Server::handle_admin(std::uint64_t conn, std::int64_t id, const std::string& cmd) {
  if (cmd != "stats" && cmd != "healthz" && cmd != "reload" && cmd != "shutdown") {
    send_error(conn, id, ErrorCode::kBadRequest,
               "unknown admin command '" + cmd + "' (use stats, healthz, reload, shutdown)");
    return;
  }
  if (cmd == "reload") do_reload();
  // ok reflects availability, not reload success: a failed reload keeps
  // the old generation serving, which the caller sees unchanged.
  const auto bundle = registry_.current();
  obs::JsonValue resp = make_ok_response(id, bundle->generation, bundle->degraded);
  if (cmd == "stats") resp.set("stats", stats_json());
  if (cmd == "healthz") resp.set("health", health_json());
  reply(conn, resp);
  if (cmd == "shutdown") request_stop();
}

void Server::reply(std::uint64_t conn, const obs::JsonValue& resp, bool ok, bool hang_up) {
  Reply r{conn, std::string(), ok, hang_up};
  try {
    r.frame = encode_frame(resp.dump());
  } catch (const util::IoError& e) {
    // Over the frame cap: no peer can take it, so the connection ends.
    obs::log_debug("serve", "response dropped", {{"error", e.what()}});
    r.ok = false;
    r.hang_up = true;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(replies_mu_);
    wake = replies_.empty();
    replies_.push_back(std::move(r));
  }
  // One wake byte per empty-to-nonempty transition: the loop takes the
  // whole list each pass, so the pipe never fills up.
  if (wake) write_byte(notify_write_fd_, 'W');
}

void Server::send_error(std::uint64_t conn, std::int64_t id, ErrorCode code,
                        const std::string& message, const std::string& rid, bool hang_up) {
  stats_.errors.fetch_add(1, std::memory_order_relaxed);
  stats_.by_error_code[static_cast<std::size_t>(code)].fetch_add(1, std::memory_order_relaxed);
  reply(conn, make_error_response(id, code, message, rid), false, hang_up);
}

// Client-attributed shedding: the request carried a deadline and the
// queue outlived it. Queue-wait histograms and the recent ring record it
// (it is exactly the evidence a fairness/backlog investigation needs) but
// the SLO windows and the latency histogram do not — the server never
// owed this request an answer after its deadline, so it is not
// unavailability (DESIGN.md §14).
void Server::answer_expired(const Job& job) {
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& shed_c = reg.counter("serve.deadline_shed");
  static obs::Histogram* const lane_wait_h[kNumPriorities] = {
      &reg.histogram("serve.queue_wait_us.low"),
      &reg.histogram("serve.queue_wait_us.normal"),
      &reg.histogram("serve.queue_wait_us.high"),
  };
  const auto now = std::chrono::steady_clock::now();
  const double wait_us = us_between(job.enqueued_at, now);
  lane_wait_h[static_cast<std::size_t>(job.priority)]->record(wait_us);
  span(job.request_id, "queue", wait_us);
  stats_.deadline_shed.fetch_add(1, std::memory_order_relaxed);
  shed_c.add();
  send_error(job.conn, job.id, ErrorCode::kDeadlineExceeded,
             "deadline expired after " + std::to_string(wait_us / 1000.0) + " ms in queue",
             job.request_id);
  flight_mark(job.request_id, "end deadline_exceeded");

  RequestRecord rec;
  rec.request_id = job.request_id;
  rec.client_id = job.id;
  rec.client = job.client;
  rec.priority = priority_name(job.priority);
  rec.deck_bytes = job.netlist_text.size();
  rec.ok = false;
  rec.error_code = error_code_name(ErrorCode::kDeadlineExceeded);
  rec.phases.queue_us = wait_us;
  rec.phases.total_us = wait_us;
  rec.done_ts_ms = wall_ms_now();
  recent_.push(std::move(rec));
}

// The paragraph-stats-v1 document: one consistent live view of the
// daemon. "server" is the exact per-server accounting (plain atomics),
// "metrics" is the process-wide registry snapshot (histogram quantiles
// included), "slo" the rolling windows, "recent" the request ring.
obs::JsonValue Server::stats_json() const {
  obs::JsonValue s = obs::JsonValue::object();
  s.set("schema", "paragraph-stats-v1");

  obs::JsonValue server = obs::JsonValue::object();
  server.set("connections", stats_.connections.load());
  server.set("requests", stats_.requests.load());
  server.set("responses", stats_.responses.load());
  server.set("rejected", stats_.rejected.load());
  server.set("errors", stats_.errors.load());
  server.set("batches", stats_.batches.load());
  server.set("coalesced", stats_.coalesced.load());
  server.set("reloads", stats_.reloads.load());
  server.set("max_batch_seen", stats_.max_batch_seen.load());
  server.set("inflight", stats_.inflight.load());
  server.set("io_timeouts", stats_.io_timeouts.load());
  server.set("deadline_shed", stats_.deadline_shed.load());
  server.set("conn_rejected", stats_.conn_rejected.load());
  server.set("queue_depth", queue_.depth());
  server.set("queue_capacity", queue_.capacity());
  server.set("max_batch", config_.max_batch);
  server.set("io_timeout_ms", static_cast<long long>(config_.io_timeout_ms));
  server.set("max_conns", config_.max_conns);
  server.set("client_queue_cap", config_.client_queue_cap);
  server.set("auth_required", !config_.auth_token.empty());
  const auto lanes = queue_.lane_depths();
  obs::JsonValue lanes_obj = obs::JsonValue::object();
  for (std::size_t p = 0; p < kNumPriorities; ++p)
    lanes_obj.set(priority_name(static_cast<Priority>(p)), lanes[p]);
  server.set("queue_lanes", std::move(lanes_obj));
  // Every wire error code, zeros included: dashboards and the output
  // collector can rely on the full closed set being present.
  obs::JsonValue codes = obs::JsonValue::object();
  for (std::size_t c = 0; c < kNumErrorCodes; ++c)
    codes.set(error_code_name(static_cast<ErrorCode>(c)), stats_.by_error_code[c].load());
  server.set("error_codes", std::move(codes));
  s.set("server", std::move(server));

  const auto bundle = registry_.current();
  obs::JsonValue model = obs::JsonValue::object();
  model.set("generation", static_cast<unsigned long long>(bundle->generation));
  model.set("degraded", bundle->degraded);
  obs::JsonValue dropped = obs::JsonValue::array();
  for (const auto& d : bundle->dropped) dropped.push_back(d.path);
  model.set("dropped_members", std::move(dropped));
  s.set("model", std::move(model));

  s.set("slo", slo_.to_json());
  s.set("metrics", obs::MetricsRegistry::instance().snapshot().to_json());

  obs::JsonValue process = obs::JsonValue::object();
  const obs::ProcMemory mem = obs::sample_process_memory();
  process.set("rss_kb", mem.vm_rss_kb);
  process.set("peak_rss_kb", mem.vm_hwm_kb);
  process.set("rss_ok", mem.ok);
  s.set("process", std::move(process));

  obs::JsonValue recent = obs::JsonValue::array();
  for (const RequestRecord& r : recent_.snapshot()) recent.push_back(r.to_json());
  s.set("recent", std::move(recent));
  return s;
}

obs::JsonValue Server::health_json() const {
  const auto bundle = registry_.current();
  const std::size_t depth = queue_.depth();
  const bool overloaded = depth >= queue_.capacity();
  obs::JsonValue h = obs::JsonValue::object();
  h.set("status", overloaded ? "overloaded" : bundle->degraded ? "degraded" : "ok");
  h.set("degraded", bundle->degraded);
  h.set("overloaded", overloaded);
  h.set("generation", static_cast<unsigned long long>(bundle->generation));
  h.set("queue_depth", depth);
  h.set("queue_capacity", queue_.capacity());
  h.set("slo_burn_rate_1m", slo_.window(60).burn_rate);
  return h;
}

// Terminal per-request accounting shared by every outcome the worker
// answers: SLO window, recent ring, slow log, flight-recorder end mark.
void Server::finish_request(const Job& job, RequestRecord record) {
  const double total_ms = record.phases.total_us / 1000.0;
  slo_.record(record.ok, total_ms);
  flight_mark(job.request_id,
              record.ok ? "end" : ("end " + record.error_code).c_str());
  if (config_.slow_ms > 0.0 && total_ms >= config_.slow_ms) {
    obs::log_warn("serve", "slow request",
                  {{"request_id", record.request_id},
                   {"deck", record.deck},
                   {"deck_bytes", record.deck_bytes},
                   {"priority", record.priority},
                   {"ok", record.ok},
                   {"total_ms", total_ms},
                   {"queue_ms", record.phases.queue_us / 1000.0},
                   {"parse_ms", record.phases.parse_us / 1000.0},
                   {"plan_ms", record.phases.plan_us / 1000.0},
                   {"predict_ms", record.phases.predict_us / 1000.0},
                   {"serialize_ms", record.phases.serialize_us / 1000.0}});
  }
  recent_.push(std::move(record));
}

// -------------------------------------------------------------------- worker

void Server::worker_loop() {
  for (;;) {
    std::vector<Job> batch = queue_.pop_batch(config_.max_batch);
    if (batch.empty()) return;  // queue closed and drained
    try {
      process_batch(std::move(batch));
    } catch (const std::exception& e) {
      // Defensive: process_batch answers per-group failures itself; this
      // catches bugs in the batch machinery so one bad batch cannot kill
      // the worker (and with it the whole daemon).
      obs::log_error("serve", "batch processing failed", {{"error", e.what()}});
    }
  }
}

void Server::process_batch(std::vector<Job> batch) {
  PARAGRAPH_TIMED_SCOPE("serve_batch");
  // Fault site serve.crash: a real abort mid-batch, after requests were
  // admitted (flight-recorder "begin" marks written) but before any is
  // answered — the crash-dump tests assert the dump names them in flight.
  if (util::fault::should_fail("serve.crash")) std::abort();
  const auto bundle = registry_.current();  // one generation per batch
  const auto popped_at = std::chrono::steady_clock::now();
  // Memoized embeddings are keyed by model, and a retired generation's
  // models never ask again.
  if (bundle->generation != plan_cache_generation_) {
    plan_cache_.clear();
    plan_cache_generation_ = bundle->generation;
  }

  // Shed dead work first: a job whose deadline passed while it was queued
  // gets its typed deadline_exceeded answer before any parse/plan/predict
  // is spent on it — a backed-up queue drains, it does not compute
  // answers nobody will read.
  {
    std::vector<Job> live;
    live.reserve(batch.size());
    for (Job& job : batch) {
      if (job.deadline <= popped_at)
        answer_expired(job);
      else
        live.push_back(std::move(job));
    }
    batch = std::move(live);
  }
  if (batch.empty()) return;

  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = stats_.max_batch_seen.load(std::memory_order_relaxed);
  while (batch.size() > seen &&
         !stats_.max_batch_seen.compare_exchange_weak(seen, batch.size(),
                                                      std::memory_order_relaxed)) {
  }
  // Always-on serve instruments (see start()); name lookups cached once.
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Histogram& batch_size_h = reg.histogram("serve.batch_size");
  static obs::Gauge& depth_g = reg.gauge("serve.queue_depth");
  static obs::Gauge& inflight_g = reg.gauge("serve.inflight");
  static obs::Histogram& latency_h = reg.histogram("serve.latency_us");
  static obs::Histogram* const lane_wait_h[kNumPriorities] = {
      &reg.histogram("serve.queue_wait_us.low"),
      &reg.histogram("serve.queue_wait_us.normal"),
      &reg.histogram("serve.queue_wait_us.high"),
  };
  batch_size_h.record(static_cast<double>(batch.size()));
  depth_g.set(static_cast<double>(queue_.depth()));
  stats_.inflight.fetch_add(batch.size(), std::memory_order_relaxed);
  inflight_g.set(static_cast<double>(stats_.inflight.load(std::memory_order_relaxed)));

  // Queue-wait ends for every job the moment the worker picked it up;
  // the per-lane histograms are what the fairness follow-up will read.
  std::vector<double> queue_wait_us(batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    queue_wait_us[j] = us_between(batch[j].enqueued_at, popped_at);
    lane_wait_h[static_cast<std::size_t>(batch[j].priority)]->record(queue_wait_us[j]);
    span(batch[j].request_id, "queue", queue_wait_us[j]);
  }

  // Coalesce byte-identical netlists: one group is parsed, planned, and
  // predicted once, then answers every job that carried it.
  struct Group {
    const Job* job = nullptr;  // representative (first occurrence)
    std::vector<std::size_t> job_indices;
    dataset::Sample sample;
    bool ok = false;
    ErrorCode error_code = ErrorCode::kInternal;
    std::string error_message;
    bool hierarchical = false;  // parsed netlist has subckt instances
    obs::JsonValue predictions;
    // Shared phase costs: every coalesced job reports the group's work.
    double parse_us = 0.0;
    double plan_us = 0.0;
    double predict_us = 0.0;
  };
  std::vector<Group> groups;
  std::unordered_map<std::uint64_t, std::size_t> by_hash;
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const Job& job = batch[j];
    const auto it = by_hash.find(job.netlist_hash);
    if (it != by_hash.end() && groups[it->second].job->netlist_text == job.netlist_text) {
      groups[it->second].job_indices.push_back(j);
      stats_.coalesced.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    by_hash.emplace(job.netlist_hash, groups.size());
    groups.emplace_back();
    groups.back().job = &job;
    groups.back().job_indices.push_back(j);
  }

  // One prediction pass per distinct deck. Every deck parses in one
  // parallel pass, and the flat ones predict right there, each on its own
  // plan. Decks whose parsed netlist has subckt instances then predict
  // serially, so the worker-owned PlanCache (not thread-safe) memoizes
  // their templates across requests.
  const auto parse_group = [&](Group& g) {
    const auto parse_start = std::chrono::steady_clock::now();
    try {
      circuit::Netlist nl = circuit::parse_spice_string(g.job->netlist_text);
      g.sample.name = nl.name();
      g.sample.graph = graph::build_graph(nl);
      g.sample.netlist = std::move(nl);
      g.parse_us = us_between(parse_start, std::chrono::steady_clock::now());
    } catch (const circuit::ParseError& e) {
      g.error_code = ErrorCode::kParseError;
      g.error_message = e.what();
      g.parse_us = us_between(parse_start, std::chrono::steady_clock::now());
      return false;
    }
    span(g.job->request_id, "parse", g.parse_us);
    g.hierarchical = !g.sample.netlist.instances().empty();
    return true;
  };
  const auto predict_group = [&](Group& g) {
    const auto predict_start = std::chrono::steady_clock::now();
    try {
      // Fault site serve.predict: a typed internal error after a clean
      // parse, for the telemetry/error-path tests.
      if (util::fault::should_fail("serve.predict"))
        throw util::IoError("injected fault at serve.predict");
      obs::JsonValue preds = obs::JsonValue::object();
      if (bundle->ensemble.has_value()) {
        const auto& ds = bundle->ensemble_dataset();
        std::vector<float> p;
        if (g.hierarchical) {
          // Plan construction happens inside the cache-aware predict, so
          // it stays folded into predict_us on this path.
          p = bundle->ensemble->predict_with_cache(ds, g.sample, plan_cache_);
        } else {
          const auto plan_start = std::chrono::steady_clock::now();
          const gnn::GraphPlan plan =
              gnn::GraphPlan::build(g.sample.graph, bundle->ensemble->model(0).needs_homo());
          g.plan_us = us_between(plan_start, std::chrono::steady_clock::now());
          p = bundle->ensemble->predict_with_plan(ds, g.sample, plan);
        }
        preds.set(dataset::target_name(dataset::TargetKind::kCap),
                  named_predictions(g.sample, dataset::TargetKind::kCap, p));
      }
      for (std::size_t m = 0; m < bundle->models.size(); ++m) {
        const core::GnnPredictor& model = bundle->models[m];
        const auto& ds = bundle->model_dataset(m);
        const std::vector<float> p = g.hierarchical
                                         ? model.predict_all(ds, g.sample, plan_cache_)
                                         : model.predict_all(ds, g.sample);
        preds.set(dataset::target_name(model.config().target),
                  named_predictions(g.sample, model.config().target, p));
      }
      g.predictions = std::move(preds);
      g.ok = true;
    } catch (const std::exception& e) {
      g.error_code = ErrorCode::kInternal;
      g.error_message = e.what();
    }
    g.predict_us =
        us_between(predict_start, std::chrono::steady_clock::now()) - g.plan_us;
    if (g.plan_us > 0.0) span(g.job->request_id, "plan", g.plan_us);
    span(g.job->request_id, "predict", g.predict_us);
  };

  runtime::parallel_for("serve_predict", groups.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t gi = lo; gi < hi; ++gi)
      if (parse_group(groups[gi]) && !groups[gi].hierarchical) predict_group(groups[gi]);
  });
  for (Group& g : groups)
    if (g.hierarchical) predict_group(g);

  // Answer every job from its group's shared result, in batch (service)
  // order, with per-request latency accounted up to the hand-off to the
  // loop and a RequestRecord pushed into the telemetry surfaces for each.
  for (const Group& g : groups) {
    for (std::size_t k = 0; k < g.job_indices.size(); ++k) {
      const std::size_t j = g.job_indices[k];
      const Job& job = batch[j];
      const auto send_start = std::chrono::steady_clock::now();
      if (g.ok) {
        obs::JsonValue resp =
            make_ok_response(job.id, bundle->generation, bundle->degraded, job.request_id);
        resp.set("predictions", g.predictions);
        reply(job.conn, resp, /*ok=*/true);
      } else {
        send_error(job.conn, job.id, g.error_code, g.error_message, job.request_id);
      }
      const auto done = std::chrono::steady_clock::now();

      RequestRecord rec;
      rec.request_id = job.request_id;
      rec.client_id = job.id;
      rec.client = job.client;
      rec.priority = priority_name(job.priority);
      rec.deck = g.sample.name;
      rec.deck_bytes = job.netlist_text.size();
      rec.ok = g.ok;
      if (!g.ok) rec.error_code = error_code_name(g.error_code);
      rec.generation = bundle->generation;
      rec.coalesced = k > 0;
      rec.phases.queue_us = queue_wait_us[j];
      rec.phases.parse_us = g.parse_us;
      rec.phases.plan_us = g.plan_us;
      rec.phases.predict_us = g.predict_us;
      rec.phases.serialize_us = us_between(send_start, done);
      rec.phases.total_us = us_between(job.enqueued_at, done);
      rec.done_ts_ms = wall_ms_now();

      latency_h.record(rec.phases.total_us);
      span(job.request_id, "serialize", rec.phases.serialize_us);
      finish_request(job, std::move(rec));
      stats_.inflight.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  inflight_g.set(static_cast<double>(stats_.inflight.load(std::memory_order_relaxed)));
}

}  // namespace paragraph::serve
