// Live serving telemetry (DESIGN.md §13): per-request phase accounting,
// a bounded ring of recently answered requests, and rolling-window SLO
// (availability / latency burn-rate) tracking.
//
// Everything here is always-on: serve operations are milliseconds-scale,
// so unlike the nanosecond kernel counters these records are not gated on
// obs::enabled(). The `stats` admin verb reads these structures on the
// I/O loop while the worker keeps writing them, so every container is
// mutex-guarded and snapshots copy out under the lock.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace paragraph::serve {

// Process-wide request-id allocator ("r1", "r2", ...), used when a client
// does not propagate its own id. Thread-safe (one relaxed fetch_add).
std::string next_request_id();

// Wall-time breakdown of one request's life, microseconds. queue_us is
// admission to worker pickup; parse/plan/predict are shared by every job
// coalesced into the same group (each job reports the group's cost);
// serialize_us is response build + encode + hand-off to the I/O loop (it
// writes the socket later); total_us is admission to that hand-off.
// plan_us is only split out on the flat-deck path — hierarchical decks
// build plans inside the cache-aware predict, so it folds into predict_us.
struct RequestPhases {
  double queue_us = 0.0;
  double parse_us = 0.0;
  double plan_us = 0.0;
  double predict_us = 0.0;
  double serialize_us = 0.0;
  double total_us = 0.0;

  obs::JsonValue to_json() const;
};

// One answered request, as retained by the recent-requests ring and
// printed by the slow-request log: identity, deck provenance, outcome,
// and the phase breakdown.
struct RequestRecord {
  std::string request_id;
  std::int64_t client_id = 0;  // the request's "id" field, echoed
  std::string client;          // fairness key ("conn<N>" or wire "client")
  std::string priority;
  std::string deck;        // parsed circuit name; "" when the parse failed
  std::size_t deck_bytes = 0;
  bool ok = false;
  std::string error_code;  // wire error code; "" when ok
  std::uint64_t generation = 0;
  bool coalesced = false;  // answered from another job's group result
  RequestPhases phases;
  std::int64_t done_ts_ms = 0;  // wall clock when answered

  obs::JsonValue to_json() const;
};

// Bounded ring of the most recently answered requests, oldest evicted
// first. Feeds the "recent" section of the stats document so an operator
// can see *which* requests a daemon just served, not only aggregates.
class RecentRequests {
 public:
  explicit RecentRequests(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  void push(RequestRecord record);
  // Retained records, oldest first.
  std::vector<RequestRecord> snapshot() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<RequestRecord> ring_;
};

// Rolling-window SLO accounting. A request is "good" when it succeeded
// AND answered within the latency threshold; availability over a window
// is good/total, and the burn rate is (1 - availability) / (1 - target):
// 1.0 means the error budget burns exactly as fast as the SLO allows,
// >1.0 means the budget is burning down (14.4 is the classic page-now
// threshold for a 1m window).
//
// Implementation: a ring of one-second buckets keyed by the absolute
// steady-clock second, sized for the longest window (5m) plus the
// in-progress second. A bucket is lazily reset when its slot is reused
// for a new second, so idle time costs nothing and old traffic ages out
// exactly.
class SloTracker {
 public:
  struct Config {
    double latency_ms = 50.0;  // --slo-p99-ms
    double target = 0.999;     // --slo-target, availability objective
  };

  struct Window {
    std::uint64_t total = 0;
    std::uint64_t good = 0;
    double availability = 1.0;  // 1.0 when the window saw no traffic
    double burn_rate = 0.0;
  };

  explicit SloTracker(Config config);

  // Accounts one finished request at the current steady-clock second.
  void record(bool ok, double latency_ms);
  // Aggregates the last `seconds` seconds (including the current one).
  Window window(std::size_t seconds) const;

  // {"latency_ms":..,"target":..,"windows":{"10s":..,"1m":..,"5m":..},
  //  "budget_remaining":..} — budget_remaining is 1 - burn_rate over the
  //  5m window, clamped at 0 (fraction of error budget left at the
  //  current burn).
  obs::JsonValue to_json() const;

  // Test hooks: the same accounting against an explicit absolute second,
  // so bucket expiry and ring wraparound are deterministic under test.
  void record_at(std::int64_t sec, bool ok, double latency_ms);
  Window window_at(std::int64_t now_sec, std::size_t seconds) const;

  const Config& config() const { return config_; }

 private:
  struct Bucket {
    std::int64_t sec = -1;  // absolute second this bucket holds, -1 empty
    std::uint64_t total = 0;
    std::uint64_t good = 0;
  };
  // 5-minute window plus the in-progress second.
  static constexpr std::size_t kBuckets = 301;

  Window window_locked(std::int64_t now_sec, std::size_t seconds) const;

  Config config_;
  mutable std::mutex mu_;
  std::array<Bucket, kBuckets> buckets_{};
};

}  // namespace paragraph::serve
