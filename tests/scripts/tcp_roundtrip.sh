#!/bin/sh
# TCP transport acceptance at the binary level:
#   1. the same sweep over --listen (TCP) and --socket (unix) produces
#      bit-identical client row output,
#   2. connecting to a dead port is a clean exit-2 error, not a hang,
#   3. a server that dies mid-stream (SIGKILL — SIGTERM now drains
#      gracefully, docs/robustness.md) leaves the client with a clean
#      "connection ended" error, not a hang.
# Usage: tcp_roundtrip.sh <iddqsyn_server> <iddqsyn>
set -eu

SERVER="$1"
CLI="$2"
WORK="tcp_roundtrip_work"
rm -rf "$WORK"
mkdir -p "$WORK"

SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

# Start a server and set PORT from the kernel-assigned endpoint it logs.
start_tcp_server() {
  "$SERVER" --listen 127.0.0.1:0 --workers 2 "$@" \
    2> "$WORK/server_err.txt" &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    # The background redirect may not have created the log yet.
    [ -f "$WORK/server_err.txt" ] &&
      PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
               "$WORK/server_err.txt")
    [ -n "$PORT" ] && return 0
    sleep 0.1
  done
  echo "tcp_roundtrip: server never reported its port" >&2
  cat "$WORK/server_err.txt" >&2
  exit 1
}

stop_server() {
  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

# --- 1. TCP vs unix-socket row streams are bit-identical ----------------
start_tcp_server
timeout 120 "$CLI" --submit "127.0.0.1:$PORT" \
  --method random,standard --seed 42 c17 > "$WORK/rows_tcp.txt"
stop_server

SOCK="$WORK/iddq.sock"
"$SERVER" --socket "$SOCK" --workers 2 2> "$WORK/server_unix_err.txt" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
timeout 120 "$CLI" --submit "$SOCK" \
  --method random,standard --seed 42 c17 > "$WORK/rows_unix.txt"
stop_server

cmp "$WORK/rows_tcp.txt" "$WORK/rows_unix.txt"
grep -q "method=random" "$WORK/rows_tcp.txt"

# --- 2. connection refused: clean error exit, bounded time --------------
# Bind-then-kill guarantees a port nothing is listening on.
start_tcp_server
DEAD_PORT="$PORT"
stop_server
set +e
timeout 30 "$CLI" --submit "127.0.0.1:$DEAD_PORT" c17 \
  > /dev/null 2> "$WORK/refused_err.txt"
STATUS=$?
set -e
[ "$STATUS" -eq 2 ] || {
  echo "tcp_roundtrip: refused connect exited $STATUS, want 2" >&2
  cat "$WORK/refused_err.txt" >&2
  exit 1
}
grep -qi "connect" "$WORK/refused_err.txt"

# --- 3. server death mid-stream: clean client error, not a hang ---------
# SIGKILL, not SIGTERM: a TERM'd server drains gracefully (cancels the
# sweep, says bye — the client exits 0 by design), so simulating a crash
# requires the signal the server cannot catch.
start_tcp_server
# evolution on several circuits keeps the sweep alive long enough for the
# kill below to land mid-stream.
timeout 60 "$CLI" --submit "127.0.0.1:$PORT" \
  --method evolution,standard --seed 42 c1908 c2670 \
  > "$WORK/midstream_rows.txt" 2> "$WORK/midstream_err.txt" &
CLIENT_PID=$!
sleep 0.5
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
set +e
wait "$CLIENT_PID"
STATUS=$?
set -e
[ "$STATUS" -eq 2 ] || {
  echo "tcp_roundtrip: mid-stream disconnect exited $STATUS, want 2" >&2
  cat "$WORK/midstream_err.txt" >&2
  exit 1
}
grep -q "connection ended before the sweep completed" \
  "$WORK/midstream_err.txt"

echo "tcp_roundtrip: OK"
