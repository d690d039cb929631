#!/bin/sh
# SIGTERM drains iddqsyn_cluster the way it drains iddqsyn_server
# (docs/cluster.md, "Shutdown and drain"): the front-end stops accepting,
# lets a connected client's in-flight sweep finish, says bye, and exits 0
# on its own.
# Usage: cluster_sigterm_drain.sh <iddqsyn_server> <iddqsyn_cluster>
set -eu

SERVER="$1"
CLUSTER="$2"
WORK="cluster_sigterm_work"
rm -rf "$WORK"
mkdir -p "$WORK"

PIDS=""
cleanup() {
  [ -n "$PIDS" ] && kill $PIDS 2>/dev/null
  wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

# Sets PORT from the kernel-assigned endpoint a --listen 127.0.0.1:0
# process logged to $1.
wait_port() {
  for _ in $(seq 1 100); do
    # The background redirect may not have created the log yet.
    PORT=""
    [ -f "$1" ] &&
      PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$1")
    [ -n "$PORT" ] && return 0
    sleep 0.1
  done
  echo "cluster_sigterm_drain: $1 never reported a port" >&2
  cat "$1" >&2
  exit 1
}

"$SERVER" --listen 127.0.0.1:0 --workers 1 2> "$WORK/server.err" &
PIDS="$!"
wait_port "$WORK/server.err"
"$CLUSTER" --listen 127.0.0.1:0 --backend "127.0.0.1:$PORT" \
  2> "$WORK/cluster.err" &
CLUSTER_PID=$!
PIDS="$PIDS $CLUSTER_PID"
wait_port "$WORK/cluster.err"

# The client submits a sweep, TERMs the front-end once the sweep is
# accepted, and prints every event until the front-end closes the
# connection.
timeout 120 python3 - "$PORT" "$CLUSTER_PID" > "$WORK/client.txt" <<'PYEOF'
import json, os, signal, socket, sys

port, pid = int(sys.argv[1]), int(sys.argv[2])
with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
    f = s.makefile("rw", encoding="utf-8", newline="\n")
    f.write(json.dumps({"op": "submit", "id": "t", "circuits": ["c17"],
                        "methods": ["random", "standard"], "seed": 42}) + "\n")
    f.flush()
    for line in f:
        print(line.strip(), flush=True)
        if json.loads(line).get("event") == "accepted":
            os.kill(pid, signal.SIGTERM)
PYEOF

set +e
wait "$CLUSTER_PID"
STATUS=$?
set -e
PIDS="${PIDS% *}"
[ "$STATUS" -eq 0 ] || {
  echo "cluster_sigterm_drain: TERM'd front-end exited $STATUS, want 0" >&2
  cat "$WORK/cluster.err" >&2
  exit 1
}
grep -q '"event":"sweep_done","id":"t","ok":1' "$WORK/client.txt"
tail -n 1 "$WORK/client.txt" | grep -q '"event":"bye"'
grep -q "drained" "$WORK/cluster.err"

echo "cluster_sigterm_drain: OK"
