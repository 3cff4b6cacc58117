// Shared pieces of the end-to-end benchmark harness: clocks, the one
// percentile rule, host counters read from /proc, the in-memory span
// recorder of the traced run, the spawned `paragraph serve` daemon, and
// the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "obs/json.h"

namespace perfbench {

namespace obs = paragraph::obs;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  double rate_rps = 0.0;       // open-loop rate of the traced serve_sweep run
  std::string paragraph_bin;   // built `paragraph` CLI
  std::string ensemble;        // served-ensemble fixture
  std::size_t threads = 1;     // runtime threads of the daemon and of train
  std::size_t connections = 1; // serve load: nproc connections at most
};

// ----------------------------------------------------------------- stats

constexpr double kInf = 1e300;  // a failed request's latency

// Nearest-rank percentile: the ceil(q*n)-th smallest sample; NaN when
// there are none.
double percentile(std::vector<double> v, double q);
// Samples that lie above the nearest rank of q, recorded beside each
// percentile: fewer than 10 mean it is close to the sample's maximum.
std::size_t samples_beyond(std::size_t n, double q);
double median(std::vector<double> v);

// Failures per attempt, reported as the one-sided 95% Wilson upper bound
// of the failure probability: a run with no failures reads about 2.7/n
// rather than 0, and any failure raises it.
double error_rate_bound(std::uint64_t failed, std::uint64_t attempted);

// ------------------------------------------------------------- host state

// Aggregate CPU jiffies from /proc/stat, for the steal share of a window.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
double steal_share(const CpuTimes& a, const CpuTimes& b);

// VmHWM of a process in MB (pid 0: this process); 0 when unreadable.
double peak_rss_mb(pid_t pid = 0);

// ------------------------------------------------------------------ spans

// Spans recorded by the traced run around calls into the program's public
// functions, one thread, kept in memory and written out at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::int64_t rid = -1;
  };

  // A span over the scope's lifetime; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::int64_t rid = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  // A span whose bounds were taken by the caller (e.g. an epoch between
  // two training callbacks).
  void add(const char* name, Clock::time_point start, Clock::time_point end, std::int64_t rid);

  // Duration minus the part covered by direct children, summed per name.
  std::map<std::string, double> self_ms() const;
  // Sum of the durations of the direct children of every root named
  // `root`, keyed by the root's request id.
  std::map<std::int64_t, double> child_ms_by_rid(const std::string& root) const;
  // Chrome trace-event JSON (ph "X"), parent and request id in args.
  void write(const std::string& path) const;

 private:
  double now_us() const;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

// ----------------------------------------------------------------- daemon

// `paragraph serve` started as a child process on a unix socket in the
// working directory, every flag but the socket, ensemble and thread count
// at its default.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& socket_path, const std::string& log_path);
  ~Daemon();  // kills and reaps the child if it is still running
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Blocks until the socket accepts connections; throws if the child
  // exits first or `timeout_s` passes.
  void wait_ready(double timeout_s = 120.0);
  const std::string& socket_path() const { return socket_path_; }
  pid_t pid() const { return pid_; }
  // The daemon's `stats` document (the paragraph-stats-v1 object).
  obs::JsonValue stats() const;
  // Admin shutdown, then reaps the child (SIGKILL after `timeout_s`).
  // Returns the exit status, or -1 when it had to be killed.
  int shutdown(double timeout_s = 30.0);

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

// One request frame: {"id": <id>, "netlist": <escaped deck>}. The deck is
// escaped once per workload; only the id is spliced per request.
std::string escape_deck(const std::string& deck);
std::string request_frame(std::int64_t id, const std::string& escaped_deck);

// The CAP predictions of an ok response, in response order.
struct NamedValues {
  std::vector<std::string> names;
  std::vector<float> values;
};
// Parses a response frame. Returns the response id and ok flag; fills
// `cap` for ok responses and `error_code` otherwise.
struct ParsedResponse {
  std::int64_t id = -1;
  bool ok = false;
  std::string error_code;
  NamedValues cap;
};
ParsedResponse parse_response(const std::string& frame);

// ----------------------------------------------------------------- result

// A timed run sets every end-to-end metric of BENCHMARK.json; a traced run
// sets the per-layer metrics of the layers the workload enters, and run.py
// reports the others as 0.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  // Free-form validity and environment record, written beside the result.
  obs::JsonValue record = obs::JsonValue::object();

  void metric(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why);  // marks the run incorrect, logs why
  std::string line() const;           // the final JSON line
};

// Sets latency_p50_ms and latency_p90_ms from per-operation latencies. The
// p99 goes to the record only: on hier and train fewer than 10 samples lie
// beyond it. The record also holds the samples beyond each percentile.
void latency_metrics(const std::vector<double>& latencies_ms, Result& r);

// Workloads. Each fills `r`; exceptions propagate as a failed run.
void run_serve_sweep(const Options& opt, Result& r);
void run_serve_hier(const Options& opt, Result& r);
void run_train(const Options& opt, Result& r);

// stderr progress line.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
