#!/usr/bin/env sh
# Tier-1 verification, runnable locally and from CI:
#   configure + build (warnings-as-errors for src/) + full ctest.
#
#   $ tools/ci.sh [build-dir]          default build dir: build-ci
#
# Threaded tier-1 leg (the CI matrix leg): the same full ctest with
# IDDQ_THREADS=2, which makes every FlowEngine-based test evaluate ES
# descendants / tabu candidates / portfolio members on a 2-thread
# ExecutorPool — results must stay byte-identical, so every pinned
# determinism test doubles as a threading regression test.
#
#   $ tools/ci.sh threads [build-dir]  default build dir: build-ci
#
# ThreadSanitizer leg: rebuild the support, core, partition and cluster
# test binaries with -fsanitize=thread and run the parallelism-relevant
# suites (executor, optimizers, job queue/service/protocol, drain and
# deadlines, cache robustness, probe_moves and probe_move, the cluster
# client, the row merger and the protocol session over both of its
# backends) threaded. Every --gtest_filter pattern of the sanitizer legs
# must match a test (run_filtered). Both sanitizer legs run every selected
# binary even when an earlier one fails, then fail naming each binary that
# did.
#
#   $ tools/ci.sh tsan [build-dir]     default build dir: build-tsan
#
# AddressSanitizer leg: rebuild every test binary with
# -fsanitize=address,undefined and leak detection on, and run all of them
# whole (support, electrical, library, netlist, estimators, partition,
# sim, report, cluster and the integration flow: the timing engine and
# its slack certificate, the evaluator, its probes and delay memo, the
# cluster client, its merger and the shared protocol session) except
# core, where it runs the suites behind the standard clustering, the
# FlowEngine and its Table 1 pair, the job protocol/service stack, the
# parallel optimizers, their entry-point equivalence and trajectory pins,
# and the tabu, annealing, greedy and random searches.
#
#   $ tools/ci.sh asan [build-dir]     default build dir: build-asan
#
# Server smoke (what the CI server-smoke job runs): build only the job
# server, start it in pipe mode, submit a builtin-circuit job, and assert
# a result row streams back.
#
#   $ tools/ci.sh smoke [build-dir]    default build dir: build-smoke
#
# Bench-row regression gate (the CI bench-compare job): run the FAST
# Table-1 sweep threaded and diff its rows against the committed
# BENCH_table1.json with tools/bench_compare.py — optimizer results must
# be byte-identical to the baseline at any thread count; wall clock is
# reported but not enforced (CI hosts differ from the baseline host).
#
#   $ tools/ci.sh bench [build-dir]    default build dir: build-bench
#
# Coverage smoke (the CI coverage-smoke job): build the CLI, run the
# coverage-graded FAST sweep with set-cover minimization at
# IDDQ_THREADS=2, and diff the summary rows byte-for-byte against the
# committed golden file tests/golden/coverage_smoke.txt — the
# fault-grade coverage numbers are part of the determinism contract.
#
#   $ tools/ci.sh coverage-smoke [build-dir]  default: build-coverage
#
# Big-circuit smoke (the CI big-smoke job): build the bench, run the
# BIG-tier sweep restricted to the ~10k-gate big_dag10k at FAST budget
# with IDDQ_THREADS=2 and again with 4, and diff the rows against the
# committed golden tests/golden/BENCH_big_smoke.json — the large-circuit
# scaling path obeys the same byte-identity contract as the Table-1 tier,
# at a wall-clock cost CI can afford (~2 s of sweep per thread count).
#
#   $ tools/ci.sh big-smoke [build-dir]  default: build-bench
#
# Traffic stress (the CI stress job): start a TCP server, run three
# concurrent submit clients — one deliberately slow (--stall-ms) so the
# per-session event queue absorbs a non-draining reader — and diff every
# client's row stream against the direct-engine rows from the iddqsyn
# binary at the same seed. A stalled reader must neither corrupt nor
# block anyone's results.
#
#   $ tools/ci.sh stress [build-dir]   default build dir: build-stress
#
# Cluster leg (the CI cluster job): start three TCP backends and an
# iddqsyn_cluster front-end over them, run a sweep through the front-end
# with one backend killed mid-sweep, and diff the client's rows
# byte-for-byte against the direct single-process engine at the same seed
# (IDDQ_THREADS=2). Also exercises the remote --cache-stats path against
# the front-end's aggregated stats.
#
#   $ tools/ci.sh cluster [build-dir]  default build dir: build-cluster
#
# Chaos leg (the CI chaos job, docs/robustness.md): three backends under
# a deterministic IDDQ_FAULT_PLAN — one drops every accepted session
# after 4 event lines, one stalls a write — behind a heartbeat-probing
# front-end. The sweep's surviving rows must diff byte-identical against
# the direct engine; a --deadline-ms 1 submit must fail with a timeout;
# the aggregated stats books must balance (submitted == completed +
# failed + cancelled, timeouts >= 1); and a SIGTERM'd server must drain
# gracefully within its --drain-timeout-ms bound.
#
#   $ tools/ci.sh chaos [build-dir]    default build dir: build-chaos
set -eu

MODE="full"
case "${1:-}" in
  smoke|threads|tsan|asan|bench|big-smoke|coverage-smoke|stress|cluster|chaos)
    MODE="$1"
    shift
    ;;
esac

JOBS="$(nproc 2>/dev/null || echo 2)"
ROOT="$(dirname "$0")/.."

# Prints the port a server or front-end started in the background reports
# in its stderr log FILE ("listening on 127.0.0.1:PORT"), polling 100 x
# 0.1 s; fails when it never does. A log the background redirect has not
# created yet counts as "not yet", not as an error.
wait_listen() {
  _tries=0
  while [ $_tries -lt 100 ]; do
    if [ -f "$1" ]; then
      _port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$1")
      if [ -n "$_port" ]; then
        echo "$_port"
        return 0
      fi
    fi
    sleep 0.1
    _tries=$((_tries + 1))
  done
  return 1
}

# Runs test binary BIN with its arguments; a failing binary is recorded in
# FAILED instead of ending the leg, so one failure (say a wall-clock flake)
# does not hide the binaries after it. finish_leg reports them.
FAILED=""
run_test() {
  "$@" || FAILED="$FAILED $(basename "$1")"
}

# Ends a sanitizer leg: fails naming every binary run_test saw fail, else
# prints "LEG OK".
finish_leg() {
  if [ -n "$FAILED" ]; then
    echo "$1: failing test binaries:$FAILED" >&2
    exit 1
  fi
  echo "$1 OK"
}

# Runs test binary BIN with --gtest_filter FILTER after checking that every
# ':'-separated pattern of FILTER matches at least one test, so a renamed
# or deleted suite fails the leg at once instead of silently dropping out
# of it. The run itself goes through run_test.
run_filtered() {
  _saved_ifs=$IFS
  IFS=:
  set -f
  for _pattern in $2; do
    if ! "$1" --gtest_list_tests --gtest_filter="$_pattern" | grep -q '^  '
    then
      echo "$1: --gtest_filter pattern '$_pattern' matches no test" >&2
      exit 1
    fi
  done
  set +f
  IFS=$_saved_ifs
  run_test "$1" --gtest_filter="$2"
}

if [ "$MODE" = "smoke" ]; then
  BUILD_DIR="${1:-build-smoke}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_WERROR=ON -DIDDQ_BUILD_TESTS=OFF \
    -DIDDQ_BUILD_BENCHES=OFF -DIDDQ_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" --target iddqsyn_server
  OUT="$BUILD_DIR/server_smoke_out.txt"
  printf '%s\n%s\n' \
    '{"op":"submit","id":"smoke","circuits":["c17"],"methods":["random","standard"],"seed":42}' \
    '{"op":"shutdown"}' \
    | "$BUILD_DIR/iddqsyn_server" --pipe --workers 2 --threads 2 \
      --max-queue 16 > "$OUT"
  grep -q '"event":"row"' "$OUT"
  grep -q '"event":"sweep_done","id":"smoke","ok":1' "$OUT"
  grep -q '"event":"bye"' "$OUT"
  echo "server smoke OK"
  exit 0
fi

if [ "$MODE" = "bench" ]; then
  BUILD_DIR="${1:-build-bench}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_WERROR=ON -DIDDQ_BUILD_TESTS=OFF \
    -DIDDQ_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_table1_main
  IDDQSYN_BENCH_FAST=1 "$BUILD_DIR/bench_table1_main" --threads 2 \
    --json "$BUILD_DIR/BENCH_fresh.json"
  python3 "$ROOT/tools/bench_compare.py" "$ROOT/BENCH_table1.json" \
    "$BUILD_DIR/BENCH_fresh.json"
  echo "bench rows OK"
  exit 0
fi

if [ "$MODE" = "big-smoke" ]; then
  BUILD_DIR="${1:-build-bench}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_WERROR=ON -DIDDQ_BUILD_TESTS=OFF \
    -DIDDQ_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_table1_main
  # Two thread counts against the same golden: the ES scores each parent's
  # children on one worker, so 4 threads checks per-parent parallel
  # scoring beyond the 2-thread split.
  for THREADS in 2 4; do
    IDDQSYN_BENCH_FAST=1 IDDQ_THREADS="$THREADS" \
      "$BUILD_DIR/bench_table1_main" --tier big --only big_dag10k \
      --json "$BUILD_DIR/BENCH_big_fresh.json"
    python3 "$ROOT/tools/bench_compare.py" \
      "$ROOT/tests/golden/BENCH_big_smoke.json" \
      "$BUILD_DIR/BENCH_big_fresh.json"
  done
  echo "big smoke OK"
  exit 0
fi

if [ "$MODE" = "coverage-smoke" ]; then
  BUILD_DIR="${1:-build-coverage}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_WERROR=ON -DIDDQ_BUILD_TESTS=OFF \
    -DIDDQ_BUILD_BENCHES=OFF -DIDDQ_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" --target iddqsyn
  OUT="$BUILD_DIR/coverage_smoke_out.txt"
  IDDQ_THREADS=2 "$BUILD_DIR/iddqsyn" --quiet --generations 12 \
    --method evolution,standard --coverage --fault-model mixed \
    --patterns 64 --minimize-patterns c17 ila8x4 ila16x8 > "$OUT"
  diff -u "$ROOT/tests/golden/coverage_smoke.txt" "$OUT"
  echo "coverage smoke OK"
  exit 0
fi

if [ "$MODE" = "stress" ]; then
  BUILD_DIR="${1:-build-stress}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_WERROR=ON -DIDDQ_BUILD_TESTS=OFF \
    -DIDDQ_BUILD_BENCHES=OFF -DIDDQ_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" --target iddqsyn iddqsyn_server

  SWEEP="c1908 c2670"
  METHODS="evolution,standard"
  # shellcheck disable=SC2086
  IDDQ_THREADS=2 "$BUILD_DIR/iddqsyn" --quiet --threads 2 \
    --method "$METHODS" --seed 42 $SWEEP \
    | sort > "$BUILD_DIR/stress_golden.txt"

  "$BUILD_DIR/iddqsyn_server" --listen 127.0.0.1:0 --workers 2 \
    --threads 2 --session-queue 64 2> "$BUILD_DIR/stress_server_err.txt" &
  SERVER_PID=$!
  trap 'kill $SERVER_PID 2>/dev/null || true' EXIT INT TERM
  PORT=$(wait_listen "$BUILD_DIR/stress_server_err.txt") ||
    { echo "stress: server never reported its port"; exit 1; }

  # Client 3 submits, then refuses to read for 4s: its events pile up in
  # the bounded per-session queue while the healthy clients stream.
  # shellcheck disable=SC2086
  timeout 600 "$BUILD_DIR/iddqsyn" --submit "127.0.0.1:$PORT" \
    --method "$METHODS" --seed 42 $SWEEP > "$BUILD_DIR/stress_c1.txt" &
  C1=$!
  # shellcheck disable=SC2086
  timeout 600 "$BUILD_DIR/iddqsyn" --submit "127.0.0.1:$PORT" \
    --method "$METHODS" --seed 42 $SWEEP > "$BUILD_DIR/stress_c2.txt" &
  C2=$!
  # shellcheck disable=SC2086
  timeout 600 "$BUILD_DIR/iddqsyn" --submit "127.0.0.1:$PORT" \
    --stall-ms 4000 \
    --method "$METHODS" --seed 42 $SWEEP > "$BUILD_DIR/stress_c3.txt" &
  C3=$!
  wait $C1
  wait $C2
  wait $C3
  kill $SERVER_PID 2>/dev/null || true
  wait $SERVER_PID 2>/dev/null || true
  trap - EXIT INT TERM

  # Every client — including the one that stalled — got the exact
  # direct-engine rows (completion order differs; sort before diffing).
  for c in 1 2 3; do
    sort "$BUILD_DIR/stress_c$c.txt" > "$BUILD_DIR/stress_c$c.sorted.txt"
    diff -u "$BUILD_DIR/stress_golden.txt" "$BUILD_DIR/stress_c$c.sorted.txt"
  done
  echo "traffic stress OK"
  exit 0
fi

if [ "$MODE" = "cluster" ]; then
  BUILD_DIR="${1:-build-cluster}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_WERROR=ON -DIDDQ_BUILD_TESTS=OFF \
    -DIDDQ_BUILD_BENCHES=OFF -DIDDQ_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target iddqsyn iddqsyn_server iddqsyn_cluster

  SWEEP="c17 c1908 c2670 ila16x8 ila24x6 ila12x12"
  METHODS="evolution,standard"
  # shellcheck disable=SC2086
  IDDQ_THREADS=2 "$BUILD_DIR/iddqsyn" --quiet --threads 2 \
    --method "$METHODS" --seed 42 $SWEEP \
    | sort > "$BUILD_DIR/cluster_golden.txt"

  # Three backends on kernel-assigned ports, each with its own cache.
  BACKENDS=""
  PIDS=""
  for i in 1 2 3; do
    "$BUILD_DIR/iddqsyn_server" --listen 127.0.0.1:0 --workers 2 \
      --threads 2 --cache-dir "$BUILD_DIR/cluster_cache$i" \
      2> "$BUILD_DIR/cluster_s$i.err" &
    PIDS="$PIDS $!"
  done
  # shellcheck disable=SC2064
  trap "kill $PIDS \$CLUSTER_PID 2>/dev/null || true" EXIT INT TERM
  for i in 1 2 3; do
    BPORT=$(wait_listen "$BUILD_DIR/cluster_s$i.err") ||
      { echo "cluster: backend $i never reported its port"; exit 1; }
    BACKENDS="$BACKENDS --backend 127.0.0.1:$BPORT"
  done

  # shellcheck disable=SC2086
  "$BUILD_DIR/iddqsyn_cluster" --listen 127.0.0.1:0 $BACKENDS \
    2> "$BUILD_DIR/cluster_front.err" &
  CLUSTER_PID=$!
  CPORT=$(wait_listen "$BUILD_DIR/cluster_front.err") ||
    { echo "cluster: front-end never reported its port"; exit 1; }

  # The sweep runs through the front-end while backend 1 is killed
  # mid-flight: its shards must fail over to ring successors and the
  # merged rows must still be byte-identical to the direct engine.
  # shellcheck disable=SC2086
  IDDQ_THREADS=2 timeout 600 "$BUILD_DIR/iddqsyn" \
    --submit "127.0.0.1:$CPORT" --method "$METHODS" --seed 42 $SWEEP \
    > "$BUILD_DIR/cluster_rows_raw.txt" &
  CLIENT=$!
  sleep 1
  VICTIM=$(echo $PIDS | cut -d' ' -f1)
  kill "$VICTIM" 2>/dev/null || true
  wait $CLIENT
  sort "$BUILD_DIR/cluster_rows_raw.txt" > "$BUILD_DIR/cluster_rows.txt"
  diff -u "$BUILD_DIR/cluster_golden.txt" "$BUILD_DIR/cluster_rows.txt"

  # Remote cache inspection through the front-end: the aggregate must
  # report the ring scope (the killed backend shows up as dead).
  "$BUILD_DIR/iddqsyn" --cache-stats - --submit "127.0.0.1:$CPORT" \
    > "$BUILD_DIR/cluster_cache_stats.txt"
  grep -q "across 2/3 backends" "$BUILD_DIR/cluster_cache_stats.txt"

  kill $PIDS $CLUSTER_PID 2>/dev/null || true
  trap - EXIT INT TERM
  echo "cluster OK"
  exit 0
fi

if [ "$MODE" = "chaos" ]; then
  BUILD_DIR="${1:-build-chaos}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_WERROR=ON -DIDDQ_BUILD_TESTS=OFF \
    -DIDDQ_BUILD_BENCHES=OFF -DIDDQ_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target iddqsyn iddqsyn_server iddqsyn_cluster

  SWEEP="c17 c1908 c2670 ila16x8 ila24x6 ila12x12"
  METHODS="evolution,standard"
  # shellcheck disable=SC2086
  IDDQ_THREADS=2 "$BUILD_DIR/iddqsyn" --quiet --threads 2 \
    --method "$METHODS" --seed 42 $SWEEP \
    | sort > "$BUILD_DIR/chaos_golden.txt"

  # Three backends: #1 drops every accepted session after 4 event lines,
  # #2 stalls one write per session for 1.5s, #3 is clean. The plans are
  # seeded and deterministic (docs/robustness.md).
  BACKENDS=""
  PIDS=""
  CLUSTER_PID=""
  DRAIN_PID=""
  for i in 1 2 3; do
    PLAN=""
    [ $i -eq 1 ] && PLAN="drop-after=accept@4"
    [ $i -eq 2 ] && PLAN="stall-write=accept@3@1500"
    IDDQ_FAULT_PLAN="$PLAN" "$BUILD_DIR/iddqsyn_server" \
      --listen 127.0.0.1:0 --workers 2 --threads 2 \
      2> "$BUILD_DIR/chaos_s$i.err" &
    PIDS="$PIDS $!"
  done
  # shellcheck disable=SC2064
  trap "kill $PIDS \$CLUSTER_PID \$DRAIN_PID 2>/dev/null || true" EXIT INT TERM
  for i in 1 2 3; do
    BPORT=$(wait_listen "$BUILD_DIR/chaos_s$i.err") ||
      { echo "chaos: backend $i never reported its port"; exit 1; }
    BACKENDS="$BACKENDS --backend 127.0.0.1:$BPORT"
  done

  # Heartbeat-probing front-end: the dropping backend's channel death is
  # detected by probes, its breaker flaps open, and dispatch routes
  # around it; retries use deterministic decorrelated jitter.
  # shellcheck disable=SC2086
  "$BUILD_DIR/iddqsyn_cluster" --listen 127.0.0.1:0 $BACKENDS \
    --heartbeat-ms 100 --retry 5 --backoff-ms 50 \
    2> "$BUILD_DIR/chaos_front.err" &
  CLUSTER_PID=$!
  CPORT=$(wait_listen "$BUILD_DIR/chaos_front.err") ||
    { echo "chaos: front-end never reported its port"; exit 1; }

  # The surviving rows must be byte-identical to the direct engine even
  # though backend 1 keeps dying and backend 2 keeps stalling.
  # shellcheck disable=SC2086
  IDDQ_THREADS=2 timeout 600 "$BUILD_DIR/iddqsyn" \
    --submit "127.0.0.1:$CPORT" --method "$METHODS" --seed 42 $SWEEP \
    > "$BUILD_DIR/chaos_rows_raw.txt"
  sort "$BUILD_DIR/chaos_rows_raw.txt" > "$BUILD_DIR/chaos_rows.txt"
  diff -u "$BUILD_DIR/chaos_golden.txt" "$BUILD_DIR/chaos_rows.txt"

  # A 1ms deadline must expire: the client exits 2 with a timeout error
  # and the backend books it as failed/"reason":"timeout" — a normal
  # terminal, never failed over.
  RC=0
  timeout 600 "$BUILD_DIR/iddqsyn" --submit "127.0.0.1:$CPORT" \
    --deadline-ms 1 --method evolution --seed 777 c2670 \
    > "$BUILD_DIR/chaos_deadline_out.txt" \
    2> "$BUILD_DIR/chaos_deadline_err.txt" || RC=$?
  [ "$RC" -eq 2 ] || {
    echo "chaos: deadline client exited $RC, want 2"
    cat "$BUILD_DIR/chaos_deadline_err.txt"
    exit 1
  }
  grep -q "timeout" "$BUILD_DIR/chaos_deadline_err.txt"

  # The books must balance: aggregated across the ring, every submitted
  # job reached a terminal (completed + failed + cancelled == submitted)
  # and at least one of them timed out. Cancels are cooperative, so poll.
  timeout 120 python3 - "$CPORT" <<'PYEOF'
import json, socket, sys, time

port = int(sys.argv[1])
deadline = time.time() + 90
last = None
while time.time() < deadline:
    stats = None
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            f = s.makefile("rw", encoding="utf-8", newline="\n")
            f.write(json.dumps({"op": "stats"}) + "\n")
            f.flush()
            for line in f:
                ev = json.loads(line)
                if ev.get("event") == "stats":
                    stats = ev
                    break
    except OSError:
        stats = None
    if stats is not None:
        last = stats
        balanced = (
            stats["submitted"]
            == stats["completed"] + stats["failed"] + stats["cancelled"]
        )
        if balanced and stats["submitted"] > 0 and stats.get("timeouts", 0) >= 1:
            print("chaos stats OK: " + json.dumps(last))
            sys.exit(0)
    time.sleep(1)
print("chaos: stats never balanced: " + json.dumps(last), file=sys.stderr)
sys.exit(1)
PYEOF

  # Graceful drain: SIGTERM a standalone server mid-sweep. It must stop
  # accepting, finish or cancel in-flight work within --drain-timeout-ms,
  # say goodbye to its session, and exit on its own.
  "$BUILD_DIR/iddqsyn_server" --listen 127.0.0.1:0 --workers 2 \
    --threads 2 --drain-timeout-ms 2000 2> "$BUILD_DIR/chaos_drain.err" &
  DRAIN_PID=$!
  DPORT=$(wait_listen "$BUILD_DIR/chaos_drain.err") ||
    { echo "chaos: drain server never reported its port"; exit 1; }
  timeout 600 "$BUILD_DIR/iddqsyn" --submit "127.0.0.1:$DPORT" \
    --method "$METHODS" --seed 999 c1908 c2670 ila24x6 \
    > "$BUILD_DIR/chaos_drain_client.txt" 2>&1 &
  DRAIN_CLIENT=$!
  sleep 1
  kill -TERM "$DRAIN_PID"
  j=0
  while kill -0 "$DRAIN_PID" 2>/dev/null; do
    if [ $j -ge 300 ]; then
      echo "chaos: drained server never exited"
      exit 1
    fi
    sleep 0.1
    j=$((j + 1))
  done
  wait "$DRAIN_PID" 2>/dev/null || true
  wait "$DRAIN_CLIENT" 2>/dev/null || true
  grep -q "drained" "$BUILD_DIR/chaos_drain.err"

  kill $PIDS $CLUSTER_PID 2>/dev/null || true
  trap - EXIT INT TERM
  echo "chaos OK"
  exit 0
fi

if [ "$MODE" = "tsan" ]; then
  BUILD_DIR="${1:-build-tsan}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_BUILD_BENCHES=OFF \
    -DIDDQ_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target iddq_tests_support iddq_tests_core iddq_tests_partition \
    iddq_tests_cluster
  # The parallelism surface: executor pool, TCP transport, the parallel
  # optimizers and their invariance pins, the job queue/service/protocol
  # stack with its drain and deadline paths, the per-session event
  # writer + fault-injection layer, and the cache under concurrent
  # writers — plus the probe_moves and probe_move differential suites
  # behind the threaded child and candidate scoring. Annealing and the
  # greedy refiner run here too: their evaluator copies carry the delay
  # memo. On the cluster side: ClusterClient's reader threads, heartbeat
  # prober and failover, the row merger, and the shared session and serve
  # loop over both backends.
  export IDDQ_THREADS=2
  run_filtered "$BUILD_DIR/iddq_tests_support" 'Executor.*:Transport.*'
  run_filtered "$BUILD_DIR/iddq_tests_partition" 'ProbeMoves.*:Probe.*'
  run_filtered "$BUILD_DIR/iddq_tests_core" \
    'ParallelInvariance.*:Evolution.*:Tabu.*:Annealing.*:Refiner.*:RandomSearch.*:OptimizerEquivalence.*:Portfolio.*:JobQueue.*:JobService.*:JobProtocol.*:EventWriter.*:FaultInjection.*:Drain.*:Deadline.*:CacheRobustness.*'
  run_filtered "$BUILD_DIR/iddq_tests_cluster" \
    'ClusterClient.*:SessionBackends.*:ServeListener.*:RowMerger.*'
  finish_leg tsan
  exit 0
fi

if [ "$MODE" = "asan" ]; then
  BUILD_DIR="${1:-build-asan}"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_BUILD_BENCHES=OFF \
    -DIDDQ_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  WHOLE="support electrical library netlist estimators partition sim report
    cluster integration"
  TARGETS="iddq_tests_core"
  for t in $WHOLE; do TARGETS="$TARGETS iddq_tests_$t"; done
  # shellcheck disable=SC2086
  cmake --build "$BUILD_DIR" -j "$JOBS" --target $TARGETS
  export ASAN_OPTIONS=detect_leaks=1:abort_on_error=1
  export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1
  for t in $WHOLE; do run_test "$BUILD_DIR/iddq_tests_$t"; done
  run_filtered "$BUILD_DIR/iddq_tests_core" \
    'StandardPartition.*:JobProtocol.*:JobService.*:Evolution.*:ParallelInvariance.*:Tabu.*:Annealing.*:Refiner.*:RandomSearch.*:OptimizerEquivalence.*:OptimizerTrajectory.*:FlowEngine*.*:Flow.*'
  finish_leg asan
  exit 0
fi

BUILD_DIR="${1:-build-ci}"
cmake -B "$BUILD_DIR" -S "$ROOT" -DIDDQ_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
if [ "$MODE" = "threads" ]; then
  IDDQ_THREADS=2 ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
fi
