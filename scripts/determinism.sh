#!/bin/sh
# determinism.sh — byte-compare bnbsim output across worker topologies.
#
# The engines' contract is that Workers only schedules work: for a fixed
# seed the classic Monte-Carlo engine, the sharded single-run engine
# (at each shard count — Shards is part of the model) and the sharded
# Monte-Carlo engine must print byte-identical results for any -workers
# value. bnbsim prints its wall time on stderr, so stdout diffs as
# printed.
#
# Usage: scripts/determinism.sh [path-to-bnbsim]
#   Without an argument the binary is built into a temp dir first.
set -eu

cd "$(dirname "$0")/.."

BNBSIM="${1:-}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
if [ -z "$BNBSIM" ]; then
	BNBSIM="$TMP/bnbsim"
	go build -o "$BNBSIM" ./cmd/bnbsim
fi

# run OUT CMD... : capture stdout, which bnbsim keeps free of wall
# clock (its wall time and resume notices go to stderr, kept in
# OUT.err). A non-zero exit prints that stderr and fails the script —
# a failing binary must fail the job, not pass it with empty diffs.
run() {
	out="$1"
	shift
	if ! "$BNBSIM" "$@" > "$out" 2> "$out.err"; then
		cat "$out.err" >&2
		exit 1
	fi
}

check() {
	desc="$1"
	shift
	run "$TMP/w1.txt" "$@" -workers 1
	run "$TMP/w4.txt" "$@" -workers 4
	if ! diff -u "$TMP/w1.txt" "$TMP/w4.txt"; then
		echo "DETERMINISM VIOLATION: $desc differs between -workers 1 and -workers 4" >&2
		exit 1
	fi
	echo "ok    $desc"
}

SPEC="2000x1+2000x10"
SEED=20260727
# Checkpoint cuts exercise the observation pipeline: in-range raw and
# NxC cuts plus one beyond m (must print as an unobserved row, not
# vanish), with a bins-at-load>=k table riding along.
CPS="1000,5000,1xC,9xC"

check "classic Monte-Carlo"            -spec "$SPEC" -seed "$SEED" -reps 40
check "classic Monte-Carlo (loads)"    -spec "$SPEC" -seed "$SEED" -reps 10 -loads
check "classic Monte-Carlo (obs)"      -spec "$SPEC" -seed "$SEED" -reps 10 -checkpoints "$CPS" -heights 4
for shards in 1 4; do
	check "sharded single run (shards=$shards)"   -spec "$SPEC" -seed "$SEED" -large -shards "$shards"
	check "sharded single run (obs, shards=$shards)" -spec "$SPEC" -seed "$SEED" -large -shards "$shards" -checkpoints "$CPS" -heights 4
	check "sharded Monte-Carlo (shards=$shards)"  -spec "$SPEC" -seed "$SEED" -large -shards "$shards" -reps 12
	check "sharded Monte-Carlo (obs, shards=$shards)" -spec "$SPEC" -seed "$SEED" -large -shards "$shards" -reps 12 -checkpoints "$CPS" -heights 4
done
check "sharded Monte-Carlo (d=4, loads)" -spec "$SPEC" -seed "$SEED" -large -shards 8 -reps 6 -d 4 -loads

# A routing-heavy spec: m spans several multinomial routing blocks
# (RoutingBlock = 65536), so the block fan-out and merge — not just the
# single-block path — must be worker-independent.
BIGSPEC="100000x1+100000x10"
check "sharded single run (multi-block routing)" -spec "$BIGSPEC" -seed "$SEED" -large -shards 8 -checkpoints "70000,3xC" -heights 3

# Checkpoints must never move a draw: a checkpointed run with the
# observation lines stripped must byte-match the plain run. (The cut
# realisation itself is covered by the across-workers diffs above.)
strip_obs() {
	awk '/^checkpoints:/ { skip=1; next }
	     /^trajectory:/ { skip=1; next }
	     /^bins at load>=k:/ { skip=1; next }
	     /^[a-z]/ { skip=0 }
	     !skip' "$1"
}
run "$TMP/plain.txt" -spec "$SPEC" -seed "$SEED" -large -shards 4
run "$TMP/obs.txt"   -spec "$SPEC" -seed "$SEED" -large -shards 4 -checkpoints "$CPS" -heights 4
strip_obs "$TMP/obs.txt" > "$TMP/obs_stripped.txt"
if ! diff -u "$TMP/plain.txt" "$TMP/obs_stripped.txt"; then
	echo "DETERMINISM VIOLATION: requesting checkpoints changed the final state" >&2
	exit 1
fi
echo "ok    checkpoints never move a draw (sharded single run)"

# Deterministic resume: a sharded Monte-Carlo run interrupted after k
# repetitions (-cancel-after-reps, the timing-free stand-in for SIGINT)
# that persisted its state via -resume, then re-run with the same
# flags, must print a summary byte-identical to the uninterrupted run —
# resume notices go to stderr, so stdout stays comparable. Checked at
# two cancellation points and under different worker counts on each
# side of the interruption (resume state must not leak the topology).
MONTE="-spec $SPEC -seed $SEED -large -shards 4 -reps 12 -checkpoints $CPS -heights 4"
run "$TMP/unint.txt" $MONTE -workers 4
for k in 1 7; do
	rm -f "$TMP/resume.json"
	"$BNBSIM" $MONTE -workers 4 -resume "$TMP/resume.json" -cancel-after-reps "$k" > /dev/null 2> "$TMP/cancel.err"
	if [ ! -f "$TMP/resume.json" ]; then
		echo "RESUME VIOLATION: -cancel-after-reps $k wrote no resume state" >&2
		cat "$TMP/cancel.err" >&2
		exit 1
	fi
	run "$TMP/resumed.txt" $MONTE -workers 2 -resume "$TMP/resume.json"
	if ! diff -u "$TMP/unint.txt" "$TMP/resumed.txt"; then
		echo "RESUME VIOLATION: interrupted-at-$k-then-resumed output differs from uninterrupted run" >&2
		exit 1
	fi
	echo "ok    sharded Monte-Carlo resumed after $k reps == uninterrupted"
done

# Streaming runs: rounds of arrivals, deletions and inter-round
# rebalance must be byte-identical across worker counts at each shard
# count — the round structure, like Shards, is part of the model. The
# checkpoint cuts are ROUND indices here.
STREAM="-spec $SPEC -seed $SEED -stream -rounds 6 -m 3000 -deletions 800 -rebalance-tol 0.2"
for shards in 1 4; do
	check "streaming run (shards=$shards)"      $STREAM -shards "$shards"
	check "streaming run (obs, shards=$shards)" $STREAM -shards "$shards" -checkpoints 2,4,6 -heights 3
done
check "streaming run (schedule)" -spec "$SPEC" -seed "$SEED" -stream -schedule 5000,0,2500 -deletions 1000 -shards 4 -checkpoints 1,3

# Round cuts must never move a draw either: a streaming run with the
# trajectory/heights tables stripped must byte-match the plain run.
run "$TMP/splain.txt" $STREAM -shards 4
run "$TMP/sobs.txt"   $STREAM -shards 4 -checkpoints 2,4,6 -heights 3
strip_obs "$TMP/sobs.txt" > "$TMP/sobs_stripped.txt"
if ! diff -u "$TMP/splain.txt" "$TMP/sobs_stripped.txt"; then
	echo "DETERMINISM VIOLATION: requesting round checkpoints changed the stream" >&2
	exit 1
fi
echo "ok    checkpoints never move a draw (streaming run)"

# Serving runs: the churn-tolerant cluster engine must print
# byte-identical reports across worker counts with every failure-mode
# feature armed at once — scheduled AND stochastic churn (ring
# re-sharding, queue redistribution), timeouts with retries and
# backoff, admission-control shedding — at each shard count. bnbcluster
# prints no wall-clock fields, so the -json report diffs directly.
BNBCLUSTER="$TMP/bnbcluster"
go build -o "$BNBCLUSTER" ./cmd/bnbcluster
crun() {
	out="$1"
	shift
	"$BNBCLUSTER" "$@" > "$out"
}
ccheck() {
	desc="$1"
	shift
	crun "$TMP/cw1.txt" "$@" -workers 1
	crun "$TMP/cw4.txt" "$@" -workers 4
	if ! diff -u "$TMP/cw1.txt" "$TMP/cw4.txt"; then
		echo "DETERMINISM VIOLATION: $desc differs between -workers 1 and -workers 4" >&2
		exit 1
	fi
	echo "ok    $desc"
}
CLUSTER="-spec 800x1+200x10 -arrivals 2000 -ticks 200 -seed $SEED -json \
	-churn down@20:801,up@90:801 -crash-prob 0.003 -recover-prob 0.1 \
	-timeout 6 -retries 2 -backoff 2 -shed 2.5"
for shards in 1 4; do
	ccheck "serving run (churn+retry+shed, shards=$shards)" $CLUSTER -shards "$shards"
done
# Cancellation is part of the contract too: the completed-tick prefix
# of a cancelled run must be worker-independent, and must equal the
# counters of a run whose horizon IS the cancellation point.
ccheck "serving run (cancelled at tick 120)" $CLUSTER -shards 4 -cancel-after-ticks 120
crun "$TMP/cprefix.txt" $CLUSTER -shards 4 -cancel-after-ticks 120 -workers 4
crun "$TMP/cshort.txt" -spec 800x1+200x10 -arrivals 2000 -ticks 120 -seed "$SEED" -json \
	-churn down@20:801,up@90:801 -crash-prob 0.003 -recover-prob 0.1 \
	-timeout 6 -retries 2 -backoff 2 -shed 2.5 -shards 4 -workers 4
# The cancelled report differs only in its "cancelled": true marker and
# the final-state queue-load lines (undefined on a partial).
grep -v '"cancelled"\|"max_queue_load"\|"avg_queue_load"' "$TMP/cprefix.txt" > "$TMP/cprefix_cmp.txt"
grep -v '"cancelled"\|"max_queue_load"\|"avg_queue_load"' "$TMP/cshort.txt" > "$TMP/cshort_cmp.txt"
if ! diff -u "$TMP/cshort_cmp.txt" "$TMP/cprefix_cmp.txt"; then
	echo "DETERMINISM VIOLATION: serving run cancelled at tick 120 differs from a ticks=120 run" >&2
	exit 1
fi
echo "ok    serving run cancelled at tick 120 == ticks=120 run"

echo "all bnbsim and bnbcluster outputs byte-identical across worker counts"
