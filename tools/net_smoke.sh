#!/usr/bin/env bash
# Loopback smoke test for the network front door: starts adp_netserver on
# an ephemeral port with its slow-query log on, drives one scripted
# adp_netclient session covering DB registration, pipelined REQ,
# server-push STREAM, CANCEL, and METRICS, checks the trace dumps, and
# fails on any non-zero exit. Also checks that both binaries reject a
# malformed integer flag. Run from a build directory containing the two
# binaries (or pass it as $1).
set -euo pipefail

build_dir="${1:-.}"
server="$build_dir/adp_netserver"
client="$build_dir/adp_netclient"
[ -x "$server" ] || { echo "missing $server" >&2; exit 1; }
[ -x "$client" ] || { echo "missing $client" >&2; exit 1; }

# Integer flags parse whole: trailing junk is a usage error (exit 1).
for bin in "$client" "$server"; do
  rc=0
  "$bin" --port=1x </dev/null >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 1 ] || { echo "$bin --port=1x exited $rc, want 1" >&2; exit 1; }
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"; [ -n "${server_pid:-}" ] && kill "$server_pid" 2>/dev/null || true' EXIT

# The server serves until its stdin reaches EOF; a FIFO held open on fd 9
# keeps it alive until the trap fires.
mkfifo "$workdir/stdin"
"$server" --port=0 --workers=2 --trace-dir="$workdir/traces" \
  <"$workdir/stdin" >"$workdir/out" &
server_pid=$!
exec 9>"$workdir/stdin"

# First stdout line is "listening on <host>:<port>".
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$workdir/out")"
  [ -n "$port" ] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "server died:" >&2; cat "$workdir/out" >&2; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "server never reported a port" >&2; exit 1; }

cat >"$workdir/requests.txt" <<'EOF'
DB d1 R1=11,21/12,22/13,23 R2=21,31/22,32/22,33/23,33 R3=31,41/32,43/33,43
REQ d1 2 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)
REQ d1 3 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)
STREAM d1 3 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)
CANCEL
STATS
METRICS
EOF

"$client" --port="$port" "$workdir/requests.txt" >"$workdir/client_out"

# The session must have produced real answers, pushed stream frames, and
# the metrics text.
grep -q '"status":"OK"' "$workdir/client_out"
grep -q '"end":true' "$workdir/client_out"
grep -q '"cancelled":' "$workdir/client_out"
grep -q 'adp_net_connections_total' "$workdir/client_out"

# The slow-query log (--slow-ms defaults to 0) traced every request and
# dumped each one as Chrome trace-event JSON with a non-empty traceEvents.
grep -q '"trace_spans":' "$workdir/client_out"
dumps=("$workdir"/traces/trace-*.json)
[ -e "${dumps[0]}" ] || { echo "no trace dump in $workdir/traces" >&2; exit 1; }
for dump in "${dumps[@]}"; do
  python3 -m json.tool "$dump" >"$workdir/dump.json"
  grep -q '"traceEvents": \[$' "$workdir/dump.json" ||
    { echo "empty traceEvents in $dump" >&2; exit 1; }
done

# Clean shutdown: close the server's stdin and wait for exit 0.
exec 9>&-
wait "$server_pid"
echo "net smoke OK (port $port, ${#dumps[@]} trace dumps)"
