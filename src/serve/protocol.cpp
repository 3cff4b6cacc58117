#include "serve/protocol.h"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/faultinject.h"

namespace paragraph::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Per-frame deadline. Unarmed (timeout_ms == 0) means wait forever —
// blocking fds never poll, nonblocking ones poll with an infinite
// timeout on EAGAIN.
struct Deadline {
  bool armed = false;
  Clock::time_point at{};
  explicit Deadline(int timeout_ms) {
    if (timeout_ms > 0) {
      armed = true;
      at = Clock::now() + std::chrono::milliseconds(timeout_ms);
    }
  }
  int remaining_ms() const {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(at - Clock::now()).count();
    if (left <= 0) return 0;
    return left > INT_MAX ? INT_MAX : static_cast<int>(left);
  }
};

// Blocks until fd is ready for `events` (or has an error/hup to report —
// the following syscall surfaces those). Throws TimeoutError when the
// deadline expires first.
void wait_fd(int fd, short events, const Deadline& dl, const char* what) {
  for (;;) {
    struct pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    const int timeout = dl.armed ? dl.remaining_ms() : -1;
    const int r = ::poll(&p, 1, timeout);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw util::IoError(std::string("serve: poll failed: ") + std::strerror(errno));
    }
    if (r == 0)
      throw util::TimeoutError(std::string("serve: ") + what + " timed out mid-frame");
    return;
  }
}

// Full-buffer read: retries EINTR, short reads, and EAGAIN (nonblocking
// fds park in poll). Returns bytes read before EOF (== n unless the peer
// closed mid-buffer). An armed deadline polls before each read so stalls
// on blocking fds time out too.
std::size_t read_all(int fd, void* buf, std::size_t n, const Deadline& dl) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    if (util::fault::should_fail("sock.read"))
      throw util::IoError("serve: socket read failed: injected connection reset");
    if (dl.armed) wait_fd(fd, POLLIN, dl, "read");
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_fd(fd, POLLIN, dl, "read");
        continue;
      }
      throw util::IoError(std::string("serve: socket read failed: ") + std::strerror(errno));
    }
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void write_all(int fd, const void* buf, std::size_t n, const Deadline& dl) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t put = 0;
  while (put < n) {
    if (dl.armed) wait_fd(fd, POLLOUT, dl, "write");
    std::size_t chunk = n - put;
    // Truncated, never corrupted: the remaining bytes go out on the next
    // loop iteration, so the frame on the wire stays intact.
    if (chunk > 1 && util::fault::should_fail("sock.write.partial")) chunk /= 2;
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE for the
    // caller to handle, not as a SIGPIPE that kills the daemon.
    const ssize_t r = ::send(fd, p + put, chunk, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_fd(fd, POLLOUT, dl, "write");
        continue;
      }
      throw util::IoError(std::string("serve: socket write failed: ") + std::strerror(errno));
    }
    put += static_cast<std::size_t>(r);
  }
}

}  // namespace

std::string encode_frame(std::string_view payload, std::size_t max_bytes) {
  if (payload.size() > max_bytes)
    throw util::IoError("serve: refusing to send frame of " + std::to_string(payload.size()) +
                        " bytes (limit " + std::to_string(max_bytes) + ")");
  std::string frame(kFrameHeaderBytes, '\0');
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
    frame[i] = static_cast<char>((payload.size() >> (8 * i)) & 0xff);
  return frame.append(payload);
}

std::size_t decode_frame_header(const char* hdr, std::size_t max_bytes) {
  std::size_t len = 0;
  for (std::size_t i = kFrameHeaderBytes; i-- > 0;)
    len = len << 8 | static_cast<unsigned char>(hdr[i]);
  if (len > max_bytes)
    throw FrameError("serve: frame length " + std::to_string(len) + " exceeds limit " +
                     std::to_string(max_bytes));
  return len;
}

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kUnauthorized: return "unauthorized";
  }
  return "internal";
}

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "normal";
}

bool parse_priority(const std::string& name, Priority* out) {
  if (name == "low") *out = Priority::kLow;
  else if (name == "normal") *out = Priority::kNormal;
  else if (name == "high") *out = Priority::kHigh;
  else return false;
  return true;
}

bool read_frame(int fd, std::string* payload, std::size_t max_bytes, int timeout_ms) {
  char hdr[kFrameHeaderBytes];
  // The first header byte waits with no deadline: a persistent connection
  // idling between frames is healthy. Once a frame has *started*, the
  // rest of it must arrive within timeout_ms — that is the slowloris
  // defense.
  const std::size_t first = read_all(fd, hdr, 1, Deadline{0});
  if (first == 0) return false;  // clean EOF between frames
  const Deadline dl{timeout_ms};
  if (read_all(fd, hdr + 1, sizeof hdr - 1, dl) < sizeof hdr - 1)
    throw FrameError("serve: connection closed mid-frame header");
  const std::size_t len = decode_frame_header(hdr, max_bytes);
  payload->resize(len);
  if (len != 0 && read_all(fd, payload->data(), len, dl) < len)
    throw FrameError("serve: connection closed mid-frame payload");
  return true;
}

void write_frame(int fd, const std::string& payload, std::size_t max_bytes, int timeout_ms) {
  const std::string frame = encode_frame(payload, max_bytes);
  if (util::fault::should_fail("sock.reset"))
    throw util::IoError("serve: socket write failed: injected connection reset");
  write_all(fd, frame.data(), frame.size(), Deadline{timeout_ms});
}

bool token_equal_consttime(const std::string& a, const std::string& b) {
  const std::size_t n = a.size() > b.size() ? a.size() : b.size();
  // Fold the length difference into the accumulator and scan to the max
  // length so runtime depends only on lengths, never on content.
  unsigned char diff = a.size() == b.size() ? 0 : 1;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
    const unsigned char cb = i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
    diff = static_cast<unsigned char>(diff | (ca ^ cb));
  }
  return diff == 0;
}

obs::JsonValue make_error_response(std::int64_t id, ErrorCode code, const std::string& message,
                                   const std::string& request_id) {
  obs::JsonValue err = obs::JsonValue::object();
  err.set("code", error_code_name(code));
  err.set("message", message);
  obs::JsonValue resp = obs::JsonValue::object();
  resp.set("id", static_cast<long long>(id));
  if (!request_id.empty()) resp.set("request_id", request_id);
  resp.set("ok", false);
  resp.set("error", std::move(err));
  return resp;
}

obs::JsonValue make_ok_response(std::int64_t id, std::uint64_t model_generation, bool degraded,
                                const std::string& request_id) {
  obs::JsonValue resp = obs::JsonValue::object();
  resp.set("id", static_cast<long long>(id));
  if (!request_id.empty()) resp.set("request_id", request_id);
  resp.set("ok", true);
  resp.set("model_generation", static_cast<unsigned long long>(model_generation));
  resp.set("degraded", degraded);
  return resp;
}

}  // namespace paragraph::serve
