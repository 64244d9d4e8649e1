#!/bin/sh
# repl_smoke.sh — end-to-end smoke of WAL-shipping replication
# (make repl-smoke): start a primary lexequald, seed it over the wire,
# start a follower lexequald replicating from it, wait for catch-up,
# require byte-identical query answers on both, a rejected write at the
# replica, repl lines in STATUS on both roles, a follower restart that
# resumes without a resync, and clean drains all around.
set -eu

tmp=$(mktemp -d)
cleanup() {
    [ -n "${fpid:-}" ] && kill "$fpid" 2>/dev/null || true
    [ -n "${ppid:-}" ] && kill "$ppid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/bin/" ./cmd/lexequald ./cmd/lexequal

# wait_addr LOGFILE PIDVAR -> prints the bound address
wait_addr() {
    log=$1; spid=$2; addr=
    i=0
    while [ $i -lt 100 ]; do
        # The background server opens its log asynchronously.
        addr=$(sed -n 's/^listening on //p' "$log" 2>/dev/null || true)
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        kill -0 "$spid" 2>/dev/null || { echo "repl-smoke: server died: $(cat "$log")" >&2; return 1; }
        sleep 0.1
        i=$((i + 1))
    done
    echo "repl-smoke: server never reported an address" >&2
    return 1
}

"$tmp/bin/lexequald" -db "$tmp/primary" -addr 127.0.0.1:0 >"$tmp/primary.log" 2>&1 &
ppid=$!
paddr=$(wait_addr "$tmp/primary.log" "$ppid")
echo "repl-smoke: primary at $paddr"

pclient() { "$tmp/bin/lexequal" client -addr "$paddr" "$@"; }

pclient \
    "CREATE TABLE Books (Author NVARCHAR, Title NVARCHAR, Price FLOAT)" \
    "INSERT INTO Books VALUES ('Nehru' LANG english, 'Discovery of India', 9.95), ('नेहरु' LANG hindi, 'भारत एक खोज', 175)" \
    >"$tmp/setup.out"

"$tmp/bin/lexequald" -db "$tmp/replica" -addr 127.0.0.1:0 -follow "$paddr" >"$tmp/replica.log" 2>&1 &
fpid=$!
raddr=$(wait_addr "$tmp/replica.log" "$fpid")
echo "repl-smoke: replica at $raddr"
grep -q "following" "$tmp/replica.log" || { echo "repl-smoke: replica not following:"; cat "$tmp/replica.log"; exit 1; }

rclient() { "$tmp/bin/lexequal" client -addr "$raddr" "$@"; }

# Wait for catch-up: the replica's STATUS lag must reach 0.
i=0
while [ $i -lt 100 ]; do
    rclient STATUS >"$tmp/rstatus.out" 2>/dev/null || true
    grep -q "repl: role=follower" "$tmp/rstatus.out" && grep -q "lag=0" "$tmp/rstatus.out" && break
    sleep 0.1
    i=$((i + 1))
done
grep -q "lag=0" "$tmp/rstatus.out" || { echo "repl-smoke: replica never caught up:"; cat "$tmp/rstatus.out"; exit 1; }

q="SELECT Author FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.30 ORDER BY Author"
pclient "$q" >"$tmp/p.out"
rclient "$q" >"$tmp/r.out"
cmp -s "$tmp/p.out" "$tmp/r.out" || {
    echo "repl-smoke: replica answer diverges:"; diff "$tmp/p.out" "$tmp/r.out" || true; exit 1; }
grep -q "नेहरु" "$tmp/r.out" || { echo "repl-smoke: replica lost the Hindi match"; cat "$tmp/r.out"; exit 1; }

# Writes must be refused at the replica with a clear error.
rclient "INSERT INTO Books VALUES ('X' LANG english, 'Y', 1.0)" 2>"$tmp/w.err" || true
grep -q "read-only replica" "$tmp/w.err" || { echo "repl-smoke: replica write not refused:"; cat "$tmp/w.err"; exit 1; }

# The primary's STATUS must list its follower.
pclient STATUS >"$tmp/pstatus.out"
grep -q "repl: role=primary followers=1" "$tmp/pstatus.out" || {
    echo "repl-smoke: primary STATUS lacks the follower:"; cat "$tmp/pstatus.out"; exit 1; }

# Kill the follower, write more, restart it: it must resume (no
# resync) and converge.
kill -TERM "$fpid"; wait "$fpid" || true; fpid=
pclient "INSERT INTO Books VALUES ('Gandhi' LANG english, 'My Experiments with Truth', 12.0)" >/dev/null
"$tmp/bin/lexequald" -db "$tmp/replica" -addr 127.0.0.1:0 -follow "$paddr" >"$tmp/replica2.log" 2>&1 &
fpid=$!
raddr=$(wait_addr "$tmp/replica2.log" "$fpid")
sed -n 's/^following .* from applied lsn \([0-9]*\)$/\1/p' "$tmp/replica2.log" | grep -qv '^0$' || {
    echo "repl-smoke: restarted follower lost its applied LSN:"; cat "$tmp/replica2.log"; exit 1; }
i=0
while [ $i -lt 100 ]; do
    rclient "SELECT COUNT(*) FROM Books" >"$tmp/count.out" 2>/dev/null || true
    grep -q "3" "$tmp/count.out" && break
    sleep 0.1
    i=$((i + 1))
done
grep -q "3" "$tmp/count.out" || { echo "repl-smoke: restarted replica never converged"; cat "$tmp/count.out"; exit 1; }
grep -q "resync" "$tmp/replica2.log" && { echo "repl-smoke: restart demanded a resync:"; cat "$tmp/replica2.log"; exit 1; }

# Graceful drains: follower first, then primary, both exit 0.
kill -TERM "$fpid"
rc=0; wait "$fpid" || rc=$?; fpid=
[ "$rc" -eq 0 ] || { echo "repl-smoke: follower drain exited $rc:"; cat "$tmp/replica2.log"; exit 1; }
kill -TERM "$ppid"
rc=0; wait "$ppid" || rc=$?; ppid=
[ "$rc" -eq 0 ] || { echo "repl-smoke: primary drain exited $rc:"; cat "$tmp/primary.log"; exit 1; }

echo "repl-smoke: ok"
