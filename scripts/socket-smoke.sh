#!/usr/bin/env bash
# Socket-transport smoke: crdt-sim processes replicating over real unix and
# tcp sockets — two- and three-process meshes, batching, late joiners with
# snapshot catch-up, multiplexed objects and the receive pipeline. CI's
# socket-smoke job and `make sockets` both run this script, so the two cannot
# drift. Every step starts its processes, waits for them, prints their logs
# and checks them; a failed check exits non-zero.
#
# Usage, from the repository root: bash scripts/socket-smoke.sh
# The tcp steps listen on 127.0.0.1 ports 19701-19702 and 19711-19713.
set -eo pipefail

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/crdt-sim" ./cmd/crdt-sim
SIM="$BIN/crdt-sim"

# step announces a step and gives it a fresh directory $D for sockets and logs.
step() {
  echo "== $1"
  D=$(mktemp -d "$BIN/step.XXXXXX")
}

step "Two-process unix socket demo"
"$SIM" -transport unix -addrs "$D/a.sock,$D/b.sock" -node 0 -algo rga -ops 20 -seed 7 > "$D/p0.log" &
sleep 0.2
"$SIM" -transport unix -addrs "$D/a.sock,$D/b.sock" -node 1 -algo rga -ops 20 -seed 7 > "$D/p1.log"
wait
cat "$D/p0.log" "$D/p1.log"
s0=$(awk '/canonical state/{print $NF}' "$D/p0.log")
s1=$(awk '/canonical state/{print $NF}' "$D/p1.log")
if [ -z "$s0" ] || [ "$s0" != "$s1" ]; then
  echo "canonical states diverged between processes"; exit 1
fi

step "Two-process tcp demo"
"$SIM" -transport tcp -addrs "127.0.0.1:19701,127.0.0.1:19702" -node 0 -algo rga -ops 20 -seed 7 > "$D/p0.log" &
sleep 0.2
"$SIM" -transport tcp -addrs "127.0.0.1:19701,127.0.0.1:19702" -node 1 -algo rga -ops 20 -seed 7 > "$D/p1.log"
wait
cat "$D/p0.log" "$D/p1.log"
s0=$(awk '/canonical state/{print $NF}' "$D/p0.log")
s1=$(awk '/canonical state/{print $NF}' "$D/p1.log")
if [ -z "$s0" ] || [ "$s0" != "$s1" ]; then
  echo "canonical states diverged between tcp processes"; exit 1
fi

step "Three-process unix mesh with batching on one leg"
ADDRS="$D/a.sock,$D/b.sock,$D/c.sock"
"$SIM" -transport unix -addrs "$ADDRS" -node 0 -algo aw-set -ops 18 -seed 11 -batch-frames 8 -flush-every 5ms > "$D/p0.log" &
sleep 0.2
"$SIM" -transport unix -addrs "$ADDRS" -node 1 -algo aw-set -ops 18 -seed 11 > "$D/p1.log" &
sleep 0.2
"$SIM" -transport unix -addrs "$ADDRS" -node 2 -algo aw-set -ops 18 -seed 11 > "$D/p2.log"
wait
cat "$D/p0.log" "$D/p1.log" "$D/p2.log"
s0=$(awk '/canonical state/{print $NF}' "$D/p0.log")
s1=$(awk '/canonical state/{print $NF}' "$D/p1.log")
s2=$(awk '/canonical state/{print $NF}' "$D/p2.log")
if [ -z "$s0" ] || [ "$s0" != "$s1" ] || [ "$s0" != "$s2" ]; then
  echo "canonical states diverged across the batched 3-process mesh"; exit 1
fi

step "Late-join snapshot catch-up with log compaction"
ADDRS="$D/a.sock,$D/b.sock,$D/c.sock"
COMMON="-transport unix -addrs $ADDRS -algo counter -ops 18 -seed 7"
"$SIM" $COMMON -node 0 -late-peers 2 -snapshot-every 4 > "$D/p0.log" &
"$SIM" $COMMON -node 1 -late-peers 2 -snapshot-every 4 -batch-frames 6 -flush-every 3ms > "$D/p1.log" &
sleep 2
"$SIM" $COMMON -node 2 -catch-up > "$D/p2.log"
wait
cat "$D/p0.log" "$D/p1.log" "$D/p2.log"
s0=$(awk '/canonical state/{print $NF}' "$D/p0.log")
s1=$(awk '/canonical state/{print $NF}' "$D/p1.log")
s2=$(awk '/canonical state/{print $NF}' "$D/p2.log")
if [ -z "$s0" ] || [ "$s0" != "$s1" ] || [ "$s0" != "$s2" ]; then
  echo "canonical states diverged across the late-join mesh"; exit 1
fi
grep -q 'installed=true covered=[1-9]' "$D/p2.log" || {
  echo "joiner was not served a snapshot checkpoint"; exit 1; }
for n in 0 1; do
  grep -q 'checkpoints=[1-9]' "$D/p$n.log" && \
  grep -Eq 'truncated=[1-9][0-9]*' "$D/p$n.log" || {
    echo "early node $n never compacted its broadcast log"; exit 1; }
done

# Four objects (counter, g-set, lww-register, rga) multiplexed over one tcp
# socket pair per process pair: two early nodes checkpoint per object, the
# joiner catches up on every object over the shared connection, and
# per-object frame counters must sum to the per-peer totals (the binary
# itself exits non-zero on imbalance).
step "Multi-object tcp mesh with mixed algorithms and a late joiner"
ADDRS="127.0.0.1:19711,127.0.0.1:19712,127.0.0.1:19713"
COMMON="-transport tcp -addrs $ADDRS -objects 4 -mixed -ops 12 -seed 7"
"$SIM" $COMMON -node 0 -late-peers 2 -snapshot-every 3 -batch-frames 4 -flush-every 3ms > "$D/p0.log" &
"$SIM" $COMMON -node 1 -late-peers 2 -snapshot-every 3 > "$D/p1.log" &
sleep 2
"$SIM" $COMMON -node 2 -catch-up > "$D/p2.log"
wait
cat "$D/p0.log" "$D/p1.log" "$D/p2.log"
for o in 1 2 3 4; do
  s0=$(awk -v o="$o" '$2=="0:" && $3=="obj" && $4==o && /canonical state/{print $NF}' "$D/p0.log")
  s1=$(awk -v o="$o" '$2=="1:" && $3=="obj" && $4==o && /canonical state/{print $NF}' "$D/p1.log")
  s2=$(awk -v o="$o" '$2=="2:" && $3=="obj" && $4==o && /canonical state/{print $NF}' "$D/p2.log")
  if [ -z "$s0" ] || [ "$s0" != "$s1" ] || [ "$s0" != "$s2" ]; then
    echo "object $o diverged across the multi-object mesh"; exit 1
  fi
done
p0=$(awk '/product\(/{print $NF}' "$D/p0.log")
p2=$(awk '/product\(/{print $NF}' "$D/p2.log")
if [ -z "$p0" ] || [ "$p0" != "$p2" ]; then
  echo "reassembled product states diverged"; exit 1
fi
if [ "$(grep -c 'installed=true' "$D/p2.log")" != 4 ]; then
  echo "joiner did not install a snapshot for every object"; exit 1
fi
grep -q 'installed=true covered=[1-9]' "$D/p2.log" || {
  echo "no joiner snapshot covered any broadcast frames"; exit 1; }
# High-traffic objects compact on both early nodes; quiet objects (few ops at
# this scale) legitimately may not, so require at least one compacted object
# per early node rather than all four.
for n in 0 1; do
  grep -Eq 'obj [0-9]+ snapshots: checkpoints=[1-9]' "$D/p$n.log" && \
  grep -Eq 'truncated=[1-9][0-9]*' "$D/p$n.log" || {
    echo "early node $n never compacted any object log"; exit 1; }
  grep -q 'per-object frames' "$D/p$n.log" || {
    echo "node $n printed no per-object frame breakdown"; exit 1; }
  grep -q 'over 2 connection(s)' "$D/p$n.log" || {
    echo "node $n did not share one socket pair per process pair"; exit 1; }
done

# Three processes, four mixed objects, each node applying received frames on
# two per-object shards. Every object must converge byte-identically across
# the mesh (frames apply concurrently across objects, never within one), and
# each process must print a balanced receive ledger (the binary itself exits
# non-zero when received != dispatched != applied). The byte-identical
# pipeline-vs-pull-loop comparison lives in the conformance battery, where
# the op scripts are fixed; across separate process runs the op timestamps
# legitimately differ.
step "Parallel receive pipeline over a unix mesh"
ADDRS="$D/a.sock,$D/b.sock,$D/c.sock"
COMMON="-transport unix -addrs $ADDRS -objects 4 -mixed -ops 12 -seed 7 -batch-frames 4 -flush-every 3ms -recv-workers 2"
"$SIM" $COMMON -node 0 > "$D/p0.log" &
sleep 0.2
"$SIM" $COMMON -node 1 > "$D/p1.log" &
sleep 0.2
"$SIM" $COMMON -node 2 > "$D/p2.log"
wait
cat "$D/p0.log" "$D/p1.log" "$D/p2.log"
for o in 1 2 3 4; do
  s0=$(awk -v o="$o" '$2=="0:" && $3=="obj" && $4==o && /canonical state/{print $NF}' "$D/p0.log")
  s1=$(awk -v o="$o" '$2=="1:" && $3=="obj" && $4==o && /canonical state/{print $NF}' "$D/p1.log")
  s2=$(awk -v o="$o" '$2=="2:" && $3=="obj" && $4==o && /canonical state/{print $NF}' "$D/p2.log")
  if [ -z "$s0" ] || [ "$s0" != "$s1" ] || [ "$s0" != "$s2" ]; then
    echo "object $o diverged across the piped mesh"; exit 1
  fi
done
for n in 0 1 2; do
  grep -q 'receive pipeline workers=2' "$D/p$n.log" || {
    echo "node $n printed no receive-pipeline ledger"; exit 1; }
done

echo "socket smoke: all 6 steps passed"
