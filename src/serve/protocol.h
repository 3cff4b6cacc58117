// Wire protocol for the `paragraph serve` daemon (DESIGN.md §12).
//
// Transport framing is deliberately dumb: every message — in either
// direction — is a 4-byte little-endian payload length followed by that
// many bytes of UTF-8 JSON. No pipelining semantics beyond TCP/unix
// ordering: a client may send several frames back-to-back and responses
// carry the request's `id` so they can be matched up (responses to
// *different* requests on one connection may arrive out of submission
// order when priorities differ).
//
// Request object:
//   {"id": 7,                  // echoed verbatim in the response (any int)
//    "netlist": "<spice>",     // SPICE deck, pre-layout
//    "priority": "high",       // "low" | "normal" (default) | "high"
//    "request_id": "trace-1",  // optional: propagate a caller-chosen
//                              // trace id; server assigns "r<N>" if absent
//    "deadline_ms": 250,       // optional: shed (deadline_exceeded) if not
//                              // *started* within this many ms of arrival
//    "client": "sweep-7",      // optional fairness key; defaults to the
//                              // connection identity ("conn<N>")
//    "auth_token": "..."}      // required per request on TCP when the
//                              // server was started with --auth-token
// Admin object (instead of "netlist"):
//   {"id": 8, "admin": "reload" | "stats" | "healthz" | "shutdown"}
//
// Response object:
//   {"id": 7, "request_id": "trace-1", "ok": true,
//    "model_generation": 2, "degraded": false,
//    "predictions": {"CAP": {"<net>": 0.53, ...}, "SP": {...}, ...}}
// or, on failure:
//   {"id": 7, "request_id": "r42", "ok": false,
//    "error": {"code": "queue_full", "message": "..."}}
//
// `request_id` names the request in server-side telemetry: the recent-
// requests ring, slow-request log entries, trace spans, and flight-
// recorder events all carry it (DESIGN.md §13). Responses to frames the
// server could not attribute to a request (malformed JSON) omit it.
// `admin: "stats"` answers with a `stats` member holding a
// paragraph-stats-v1 document; `admin: "healthz"` answers with a `health`
// member ({"status": "ok"|"degraded"|"overloaded", ...}).
//
// Error codes are a closed set so clients can switch on them; see
// ErrorCode below.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "util/errors.h"

namespace paragraph::serve {

// Largest frame either side accepts. Netlists for 100k+-node circuits are
// a few MB; 64 MB leaves headroom without letting a hostile length prefix
// allocate unbounded memory.
constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

// Typed server-side failure, closed set (wire `error.code` values).
// Values are sequential from 0 so the server can keep a per-code counter
// array; keep kNumErrorCodes in sync.
enum class ErrorCode {
  kBadRequest,        // malformed JSON, missing fields, unknown priority
  kParseError,        // netlist failed to parse (message carries file:line)
  kQueueFull,         // admission control rejected: queue (or this
                      // client's share of it) at capacity
  kShuttingDown,      // server is draining; no new work accepted
  kInternal,          // unexpected exception while serving the request
  kDeadlineExceeded,  // request's deadline_ms expired before work started
                      // (client-attributed: not an SLO miss)
  kOverloaded,        // connection-level admission: too many concurrent
                      // connections; retry with backoff
  kUnauthorized,      // TCP listener has an auth token and the request's
                      // auth_token is absent or wrong
};
constexpr std::size_t kNumErrorCodes = 8;
const char* error_code_name(ErrorCode c);

// Framing violation the connection cannot recover from (oversized length
// prefix, mid-frame EOF): after one of these the byte stream has no frame
// boundary to resync on, so the server answers best-effort and closes.
class FrameError : public util::IoError {
 public:
  using util::IoError::IoError;
};

// The framing, shared by the daemon's nonblocking loop and the calls
// below: encode_frame prefixes `payload` with its 4-byte little-endian
// length (util::IoError when over max_bytes); decode_frame_header reads
// that length back (FrameError when over max_bytes).
constexpr std::size_t kFrameHeaderBytes = 4;
std::string encode_frame(std::string_view payload, std::size_t max_bytes = kMaxFrameBytes);
std::size_t decode_frame_header(const char* hdr, std::size_t max_bytes = kMaxFrameBytes);

// Blocking frame I/O for clients and tools. Both handle partial reads/writes and
// EINTR, and work on blocking or O_NONBLOCK fds. read_frame returns false
// on clean EOF before any byte of a frame; a mid-frame EOF or an
// oversized length prefix throws FrameError, other socket errors throw
// util::IoError.
//
// timeout_ms > 0 arms a per-frame deadline: for reads it starts once the
// *first* header byte arrives (idle between frames waits forever — that is
// what a persistent connection does), for writes it covers the whole
// frame. Expiry throws util::TimeoutError. timeout_ms == 0 means no
// deadline (and blocking fds never poll).
//
// Fault sites (PARAGRAPH_FAULT): sock.read throws IoError before a read;
// sock.reset throws IoError before a write; sock.write.partial truncates
// one send() chunk to half its size (frame bytes remain intact — it
// exercises the resume path, not corruption).
bool read_frame(int fd, std::string* payload, std::size_t max_bytes = kMaxFrameBytes,
                int timeout_ms = 0);
void write_frame(int fd, const std::string& payload, std::size_t max_bytes = kMaxFrameBytes,
                 int timeout_ms = 0);

// Constant-time string equality for auth-token checks: runtime depends
// only on the lengths, never on where the bytes first differ.
bool token_equal_consttime(const std::string& a, const std::string& b);

// Request priority levels, service order high to low (FIFO within one).
enum class Priority : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };
constexpr std::size_t kNumPriorities = 3;
const char* priority_name(Priority p);
// Accepts the wire names; returns false on anything else.
bool parse_priority(const std::string& name, Priority* out);

// Response builders (serialised by the caller via JsonValue::dump). An
// empty request_id omits the field (pre-admission failures).
obs::JsonValue make_error_response(std::int64_t id, ErrorCode code, const std::string& message,
                                   const std::string& request_id = std::string());
obs::JsonValue make_ok_response(std::int64_t id, std::uint64_t model_generation, bool degraded,
                                const std::string& request_id = std::string());

}  // namespace paragraph::serve
