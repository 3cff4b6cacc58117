// Bounded, priority-ordered request queue with admission control and
// per-client fairness.
//
// The daemon's I/O loop pushes; the single worker loop pops
// micro-batches. Capacity is a hard bound enforced at push time: a full
// queue rejects immediately (the caller answers the client with a typed
// `queue_full` error) instead of blocking the I/O loop — under overload
// the server sheds load, it never stalls connections. A per-client
// cap (a slice of the total capacity) bounds how much of the queue one
// client key can own, so a flooder hits kClientFull while the queue still
// has room for everyone else.
//
// Service order is strict priority (high > normal > low). Within a lane,
// dequeue is deficit-round-robin across client keys with a unit quantum
// (every job costs one batch slot, so DRR degenerates to plain
// round-robin): each pop takes the front job of the next client in the
// rotation. FIFO order within one (lane, client) pair is preserved, and a
// lane with a single client is byte-for-byte the old FIFO — which is why
// the micro-batching bit-identity guarantees survive fairness.
//
// pop_batch blocks until at least one job is available, then drains up to
// `max_batch` jobs in service order without waiting for more —
// micro-batching rides the natural backlog: an idle server answers single
// requests at minimum latency, a loaded one coalesces whatever queued up
// during the previous batch.
//
// Deadlines: a job may carry an absolute shed deadline. take_expired()
// removes and returns every job whose deadline has passed (the I/O loop
// tick answers them `deadline_exceeded`); the worker also sheds expired
// jobs it finds at the front of a batch before doing any work for them.
//
// Shutdown: close() stops admission (push returns kClosed) but pop_batch
// keeps returning queued jobs until the queue is empty — SIGTERM drains,
// it does not drop.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"

namespace paragraph::serve {

// Sentinel for "no deadline".
constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

// One admitted prediction request, carrying everything the worker needs
// to answer it: the parsed request fields, the raw netlist text (the
// batch coalescer keys duplicate requests on its hash), and the
// connection to write the response to.
struct Job {
  std::int64_t id = 0;
  // Stable trace id ("r<N>" server-assigned, or client-propagated via the
  // request's "request_id" field), echoed in the response and carried by
  // every telemetry surface that mentions this request.
  std::string request_id;
  // Fairness key: the request's "client" field, or the connection
  // identity ("conn<N>") when absent.
  std::string client;
  Priority priority = Priority::kNormal;
  std::string netlist_text;
  std::uint64_t netlist_hash = 0;
  std::uint64_t conn = 0;  // sender's connection id; gone by then: answer dropped
  std::chrono::steady_clock::time_point enqueued_at{};
  // Absolute shed deadline derived from the request's deadline_ms;
  // kNoDeadline when the request did not set one.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
};

class RequestQueue {
 public:
  enum class PushResult { kOk, kFull, kClientFull, kClosed };

  // client_cap bounds one client key's total queued jobs across all
  // lanes; 0 means no per-client cap.
  explicit RequestQueue(std::size_t capacity, std::size_t client_cap = 0)
      : capacity_(capacity ? capacity : 1), client_cap_(client_cap) {}

  PushResult push(Job job);

  // Blocks until a job is available or the queue is closed and empty.
  // Returns jobs in service order, at most max_batch, never empty unless
  // the queue is closed and drained (the worker's exit condition).
  std::vector<Job> pop_batch(std::size_t max_batch);

  // Removes and returns every queued job whose deadline is <= now, in
  // service order. The caller answers them deadline_exceeded.
  std::vector<Job> take_expired(std::chrono::steady_clock::time_point now);

  // Stops admission; pop_batch drains the backlog then returns empty.
  void close();

  // Test hook: while paused, pop_batch blocks even with jobs queued (so
  // a test can assemble a deterministic backlog before the worker runs);
  // admission is unaffected. close() overrides a pause so shutdown can
  // always drain.
  void set_paused(bool paused);

  std::size_t depth() const;
  // Queued jobs per priority lane, indexed by the Priority value (one
  // consistent reading — the stats document reports lanes that sum to
  // the depth taken in the same call).
  std::array<std::size_t, kNumPriorities> lane_depths() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t client_cap() const { return client_cap_; }
  // Queued jobs for one client key across all lanes (stats/tests).
  std::size_t client_depth(const std::string& client) const;

 private:
  // One priority lane: per-client FIFO sub-queues plus the round-robin
  // rotation of clients that currently have queued jobs. The map only
  // holds clients with jobs in *this* lane, so its size is bounded by the
  // lane depth — a hostile stream of fresh client keys cannot grow state
  // past the queue capacity.
  struct Lane {
    std::unordered_map<std::string, std::deque<Job>> by_client;
    std::deque<std::string> rr;
    std::size_t size = 0;
  };

  // Pops the next job in DRR order from a non-empty lane. Caller holds mu_.
  Job pop_one(Lane& lane);

  const std::size_t capacity_;
  const std::size_t client_cap_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<Lane, kNumPriorities> lanes_;
  // Queued jobs per client key across all lanes (admission-cap check);
  // entries are erased at zero so the map stays depth-bounded too.
  std::unordered_map<std::string, std::size_t> client_counts_;
  std::size_t size_ = 0;
  bool closed_ = false;
  bool paused_ = false;
};

}  // namespace paragraph::serve
