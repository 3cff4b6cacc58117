// Crash flight recorder: a lock-free ring buffer of the most recent
// log/metric-record/phase events plus the crashing thread's active phase
// stack, dumped to crash-<pid>.json from fatal-signal and std::terminate
// handlers so a field failure arrives with context instead of a bare
// exit code.
//
// Design constraints (see DESIGN.md §10):
//  - Writers never allocate or lock: each event is a fixed-size POD slot
//    claimed with one fetch_add; a per-slot sequence stamp is published
//    with release order *after* the payload so the dumper can detect and
//    skip slots that were mid-overwrite (torn) when the crash hit.
//  - The dump path runs inside a signal handler, so it uses only
//    async-signal-safe primitives: a preallocated format buffer and raw
//    open/write/fsync/rename syscalls. It follows the same
//    temp-then-rename publish discipline as util::write_file_atomic
//    (which itself allocates and therefore cannot be called from a
//    handler): readers only ever see a complete dump.
//  - The phase stack is a bounded thread-local array of static-lifetime
//    name pointers maintained by obs::ScopedTimer (when instrumentation
//    is on) and by the explicit phase_enter/phase_exit calls the CLI
//    makes per command (always). The handler runs on the crashing
//    thread, so reading its own thread-locals needs no synchronisation.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace paragraph::obs {

struct FlightEvent {
  enum class Kind : std::uint8_t { kLog = 0, kPhaseEnter, kPhaseExit, kRecord };

  std::uint64_t seq = 0;   // global order (0-based)
  std::int64_t ts_ms = 0;  // wall clock, ms since epoch
  Kind kind = Kind::kLog;
  std::uint8_t level = 0;  // LogLevel for kLog events
  char component[24] = {};
  char message[88] = {};
};

const char* flight_event_kind_name(FlightEvent::Kind k);

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  // Allocates the ring (capacity rounded up to a power of two, min 8) and
  // starts accepting events. Idempotent; re-arming with a different
  // capacity resets the ring. Not async-signal-safe (allocates).
  void arm(std::size_t capacity = kDefaultCapacity);
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // Appends one event (no-op when unarmed). Truncates component/message
  // to the fixed slot width. Lock-free and allocation-free.
  void record(FlightEvent::Kind kind, std::uint8_t level, std::string_view component,
              std::string_view message);

  // Phase tracking for the calling thread. `name` must have static
  // lifetime (scope-name literals). Depth beyond the fixed stack is
  // counted but not stored. Cheap enough for per-scope use; events are
  // mirrored into the ring only for shallow depths (top-level phases) so
  // hot kernel scopes cannot wash out the log history.
  void phase_enter(const char* name);
  void phase_exit();
  // The calling thread's current phase path, outermost first.
  std::vector<const char*> phase_stack() const;

  // Events currently retained, oldest first, torn slots skipped.
  std::vector<FlightEvent> snapshot() const;
  std::uint64_t total_recorded() const { return next_seq_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return ring_.size(); }

  // Installs SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT and std::terminate
  // handlers that dump and then re-raise with default disposition (so the
  // process still dies with the original signal). Also arms the recorder
  // if it is not armed yet. Dumps land in PARAGRAPH_CRASH_DIR (default:
  // current directory) as crash-<pid>.json. Idempotent.
  static void install_crash_handlers();

  // Writes crash-<pid>.json now (async-signal-safe; used by the handlers,
  // exposed so tests can validate the dump format in-process). `sig` is 0
  // for non-signal dumps. Returns false on I/O failure. At most one dump
  // per process; later calls are no-ops returning true.
  static bool dump_now(const char* reason, int sig);

  static constexpr std::size_t kDefaultCapacity = 256;
  static constexpr std::size_t kMaxPhaseDepth = 32;

 private:
  FlightRecorder() = default;

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> next_seq_{0};
  std::vector<FlightEvent> ring_;
  // Parallel publication stamps: slot i holds seq+1 of the last event
  // fully written there (0 = never). Stored separately because FlightEvent
  // must stay trivially copyable for the snapshot path.
  std::vector<std::atomic<std::uint64_t>> stamps_;
};

}  // namespace paragraph::obs
