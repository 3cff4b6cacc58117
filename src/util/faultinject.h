// Deterministic fault injection for the failure-mode test suite.
//
// Sites are named call points (e.g. "atomic.write", "train.loss") that ask
// `fault::should_fail(site)` whether this particular hit must fail. The
// schedule comes from the PARAGRAPH_FAULT environment variable (or a test
// override via fault::configure):
//
//   PARAGRAPH_FAULT=<site>:<nth>[+][,<site>:<nth>[+]...]
//
//   atomic.fsync:2     the 2nd fsync fails (1-based; one-shot)
//   train.loss:3+      every loss computation from the 3rd on is poisoned
//
// Hit counting is per-site, process-wide, and mutex-serialised, so the
// schedule is deterministic at any thread count: the nth arrival fails no
// matter which thread makes it. With no schedule configured the fast path
// is a single relaxed atomic load.
//
// Injection sites in the tree:
//   atomic.open    write_file_atomic temp-file creation
//   atomic.write   write_file_atomic payload write
//   atomic.fsync   write_file_atomic fsync before rename
//   atomic.rename  write_file_atomic final rename
//   model.load     load_predictor, after the header parses
//   train.loss     GnnPredictor::train loss computation (forces a NaN)
//   train.epoch    GnnPredictor::train end-of-epoch (throws IoError;
//                  simulates a mid-run kill for checkpoint/resume tests)
//   train.crash    GnnPredictor::train end-of-epoch (calls std::abort();
//                  a real crash, for the flight-recorder dump tests)
//   serve.predict  serve worker, after a clean parse (throws IoError →
//                  typed `internal` error response; telemetry tests)
//   serve.crash    serve worker, start of a micro-batch (calls
//                  std::abort(); the crash dump must name the in-flight
//                  request ids)
//   sock.accept    serve I/O loop, after accept succeeds (the accepted
//                  fd is closed immediately; simulates a client that
//                  vanishes between connect and first frame)
//   sock.read      serve I/O loop and read_frame, before each read
//                  syscall (the connection drops / read_frame throws
//                  IoError; simulates a connection reset mid-read)
//   sock.write.partial  serve I/O loop and write_frame (truncates one
//                  send() chunk to half, exercising the partial-write
//                  resume path; frame bytes stay intact)
//   sock.reset     serve I/O loop and write_frame, before a frame's first
//                  byte (the connection drops / write_frame throws
//                  IoError; simulates ECONNRESET on reply delivery)
#pragma once

#include <string>

namespace paragraph::util::fault {

// True when a schedule is configured (cheap: one relaxed atomic load).
bool armed();

// Counts one hit of `site`; true when the schedule says this hit fails.
// Always false when unarmed.
bool should_fail(const char* site);

// Replaces the schedule (tests). An empty spec disarms. Resets hit counts.
// Throws std::invalid_argument on a malformed spec.
void configure(const std::string& spec);

// Re-reads PARAGRAPH_FAULT from the environment (CLI startup). Unset or
// empty disarms.
void init_from_env();

// Zeroes hit counts, keeping the schedule (tests).
void reset_counts();

}  // namespace paragraph::util::fault
