#!/usr/bin/env sh
# Builds the project under ASan, UBSan, and TSan (separate build trees, so
# the primary ./build stays untouched) and runs the test suite under each.
# The thread flavour runs with PARAGRAPH_THREADS=4 so the pool, the
# parallel kernels, and the data-parallel trainer actually race; it uses
# RelWithDebInfo (TSan under -O0 is too slow for the full suite).
# Usage:
#   scripts/run_sanitizers.sh              # all three sanitizers, all tests
#   scripts/run_sanitizers.sh thread       # one sanitizer
#   scripts/run_sanitizers.sh undefined -R plan_test   # extra ctest args
#   scripts/run_sanitizers.sh robustness   # the robustness label (corrupt-
#                                          # artifact matrix, shard sweep and
#                                          # manifest edits, parser corpus,
#                                          # kill-and-resume, fault suite)
#                                          # under all three sanitizers; the
#                                          # thread flavour runs it with
#                                          # PARAGRAPH_THREADS=4
#   scripts/run_sanitizers.sh quality      # the quality label (drift
#                                          # sketches/PSI, quality accounting
#                                          # + report, flight recorder) under
#                                          # all three sanitizers
#   scripts/run_sanitizers.sh core         # the core label (predictor
#                                          # train/evaluate/predict_all,
#                                          # model-file round trips, thread-
#                                          # count determinism, golden
#                                          # fixtures) under all three
#                                          # sanitizers
#   scripts/run_sanitizers.sh scale        # the scale label (plan-cache
#                                          # bitwise equivalence, shard-store
#                                          # round trips and streamed
#                                          # training) under all three
#                                          # sanitizers
#   scripts/run_sanitizers.sh serve        # the serve label (inference
#                                          # daemon loopback: micro-batching,
#                                          # priority queue, graceful reload,
#                                          # live telemetry/SLO surfaces, and
#                                          # the 5s chaos soak) under all
#                                          # three sanitizers — the TSan
#                                          # flavour matters most here: the
#                                          # I/O loop, worker and reloads
#                                          # share state across threads
#   scripts/run_sanitizers.sh obs          # the obs label (metrics registry
#                                          # snapshot vs concurrent writers,
#                                          # histogram quantile edges, trace/
#                                          # log plumbing) under all three
#   scripts/run_sanitizers.sh chaos        # the chaos label: the hostile-
#                                          # conditions soak (torn frames,
#                                          # slowloris, socket fault schedules,
#                                          # reload-mid-soak) under all three
#                                          # sanitizers, stretched to 30s via
#                                          # PARAGRAPH_CHAOS_SECONDS (override
#                                          # by exporting it first)
set -eu

cd "$(dirname "$0")/.."

sans="address undefined thread"
case "${1:-}" in
  address|undefined|thread) sans="$1"; shift ;;
  robustness) shift; set -- -L robustness "$@" ;;
  quality) shift; set -- -L quality "$@" ;;
  core) shift; set -- -L core "$@" ;;
  scale) shift; set -- -L scale "$@" ;;
  serve) shift; set -- -L serve "$@" ;;
  obs) shift; set -- -L obs "$@" ;;
  chaos)
    shift; set -- -L chaos "$@"
    # The soak needs real wall-clock to breed rare interleavings; 30s per
    # sanitizer is the acceptance floor (ISSUE/DESIGN §14).
    PARAGRAPH_CHAOS_SECONDS="${PARAGRAPH_CHAOS_SECONDS:-30}"
    export PARAGRAPH_CHAOS_SECONDS
    ;;
esac

for san in $sans; do
  build="build-${san}san"
  echo "==> ${san} sanitizer (${build})"
  if [ "$san" = "thread" ]; then
    cmake -B "$build" -S . -DPARAGRAPH_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "$build" -j"$(nproc)" > /dev/null
    PARAGRAPH_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
      ctest --test-dir "$build" --output-on-failure "$@"
  else
    cmake -B "$build" -S . -DPARAGRAPH_SANITIZE="$san" -DCMAKE_BUILD_TYPE=Debug > /dev/null
    cmake --build "$build" -j"$(nproc)" > /dev/null
    # halt_on_error makes UBSan findings fail the run instead of just logging.
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
    ASAN_OPTIONS=detect_leaks=0 \
      ctest --test-dir "$build" --output-on-failure "$@"
  fi
done
echo "==> sanitizers clean"
