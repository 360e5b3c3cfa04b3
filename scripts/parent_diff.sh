#!/bin/sh
# parent_diff.sh — byte-compare bnbsim/bnbcluster/bnbfig output against
# a previous revision.
#
# A change that claims "no model change" (a refactor, a simplification,
# a performance change) must leave every engine's output byte-identical.
# This script builds bnbsim, bnbcluster and bnbfig twice — at REV, from a
# `git archive` export into a temp dir (no network), and from the
# working tree — runs one fixed command list on both at -workers 1 and
# -workers 3, and diffs stdout. It runs every command, lists each one
# whose output changed, and exits 1 at the end if any did, so a declared
# change in one command does not hide the others. Wall-time lines are
# the only legitimate difference and are stripped before the diff.
#
# The list covers the classic engine (checkpoints, heights), the single
# sharded game (plain and observed), sharded Monte-Carlo runs
# (checkpoints, heights, load vectors, distributions, protocols,
# -cancel-after-reps and a cancel-then-resume round trip whose resume
# files must match and cross-resume), streaming
# runs (deletions, rebalance, -cancel-after-rounds, zero-weight
# shards, also under Monte-Carlo), serving runs
# (churn, retries, shedding, -cancel-after-ticks) and the chunk
# engines' class, random-array and height observables through bnbfig.
#
# Usage: scripts/parent_diff.sh REV      (e.g. scripts/parent_diff.sh HEAD~1)
set -eu

if [ $# -ne 1 ]; then
	echo "usage: $0 REV" >&2
	exit 2
fi
REV="$1"
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/old"
git archive "$REV" | tar -x -C "$TMP/old"
for tool in bnbsim bnbcluster bnbfig; do
	(cd "$TMP/old" && go build -o "$TMP/old-$tool" ./cmd/$tool)
	go build -o "$TMP/new-$tool" ./cmd/$tool
done

# run BIN OUT ARGS... : capture stdout with wall-time lines stripped
# (stderr, which carries cancellation notices, goes to OUT.err). The
# binary runs as its own statement so a non-zero exit aborts the script
# under set -e instead of being masked by grep; an empty output fails
# too, so two silent binaries never compare equal.
run() {
	bin="$1"
	out="$2"
	shift 2
	"$bin" "$@" > "$out.raw" 2> "$out.err"
	grep -v '^wall time' "$out.raw" > "$out" || true
	if [ ! -s "$out" ]; then
		echo "no output from $bin $*" >&2
		exit 1
	fi
}

n=0
changed=0
changedList=""
# record NAME SAME : count one command and, unless SAME is 1, list it as
# changed.
record() {
	n=$((n + 1))
	if [ "$2" != 1 ]; then
		changed=$((changed + 1))
		changedList="$changedList
  $1"
	fi
}

# compare TOOL ARGS... : run TOOL (bnbsim, bnbcluster or bnbfig) at REV and
# from the working tree, at workers 1 and 3, and diff stdout.
compare() {
	tool="$1"
	shift
	same=1
	for w in 1 3; do
		run "$TMP/old-$tool" "$TMP/old.txt" "$@" -workers "$w"
		run "$TMP/new-$tool" "$TMP/new.txt" "$@" -workers "$w"
		if ! diff -u "$TMP/old.txt" "$TMP/new.txt"; then
			echo "OUTPUT CHANGED vs $REV: $tool $* -workers $w" >&2
			same=0
		fi
	done
	record "$tool $*" "$same"
}

SPEC="2000x1+2000x10"
SEED=20261017
CPS="1000,5000,1xC,9xC"

compare bnbsim -spec "$SPEC" -seed "$SEED" -reps 12 -checkpoints "$CPS" -heights 4
compare bnbsim -spec "$SPEC" -seed "$SEED" -large -shards 4
compare bnbsim -spec "$SPEC" -seed "$SEED" -large -shards 4 -checkpoints "$CPS" -heights 4
compare bnbsim -spec "100000x1+100000x10" -seed "$SEED" -large -shards 8 -checkpoints "70000,3xC" -heights 3
compare bnbsim -spec "$SPEC" -seed "$SEED" -large -shards 4 -reps 9 -checkpoints "$CPS" -heights 4
compare bnbsim -spec "$SPEC" -seed "$SEED" -large -shards 8 -reps 6 -d 4 -loads
compare bnbsim -spec "$SPEC" -seed "$SEED" -large -shards 4 -reps 6 -dist uniform -protocol standard -loads
compare bnbsim -spec "$SPEC" -seed "$SEED" -large -shards 4 -reps 6 -dist power:2 -protocol beta:0.5 -heights 3
compare bnbsim -spec "$SPEC" -seed "$SEED" -large -shards 4 -reps 9 -checkpoints "$CPS" -heights 4 -cancel-after-reps 5
compare bnbsim -spec "$SPEC" -seed "$SEED" -stream -rounds 6 -m 3000 -deletions 800 -rebalance-tol 0.2 -shards 4 -checkpoints 2,4,6 -heights 3
compare bnbsim -spec "$SPEC" -seed "$SEED" -stream -schedule 5000,0,2500 -deletions 1000 -shards 4 -checkpoints 1,3
compare bnbsim -spec "$SPEC" -seed "$SEED" -stream -rounds 6 -m 3000 -deletions 800 -rebalance-tol 0.2 -shards 4 -checkpoints 2,4,6 -cancel-after-rounds 3
# Zero-weight shards: top:10 gives the 1-capacity half of the array no
# weight, so four of the eight shards never get a view and their height
# rows come from the histograms built once at setup.
compare bnbsim -spec "$SPEC" -stream -rounds 4 -m 20000 -deletions 5000 -rebalance-tol 0.2 -dist top:10 -shards 8 -checkpoints 2,4 -heights 4
compare bnbsim -spec "$SPEC" -large -shards 8 -reps 5 -dist top:10 -heights 4 -loads

CLUSTER="-spec 800x1+200x10 -arrivals 2000 -ticks 120 -seed $SEED -json \
	-churn down@20:801,up@90:801 -crash-prob 0.003 -recover-prob 0.1 \
	-timeout 6 -retries 2 -backoff 2 -shed 2.5 -shards 4"
compare bnbcluster $CLUSTER
compare bnbcluster $CLUSTER -cancel-after-ticks 70
# cluster-serve's shape at a quarter of its ticks: 64 shards of a
# two-class ring, so one tick runs many shard tasks side by side.
compare bnbcluster -spec 5000x1+5000x10 -arrivals 40000 -ticks 30 -seed "$SEED" -json \
	-crash-prob 2e-4 -recover-prob 0.05 -timeout 2 -retries 2 -backoff 1 -shed 3 -shards 64

# The chunk engines' observables through the figure harness: class
# tracking (fig06), per-repetition random arrays (fig09), per-class
# load vectors (fig11), per-class max loads (obs1) and the per-ball
# height histogram (ext-heights). bnbfig prints only its tables on
# stdout; progress lines go to stderr.
for fig in fig06 fig09 fig11 obs1 ext-heights; do
	compare bnbfig -fig "$fig" -scale 0.2 -reps 12 -seed "$SEED"
done

# Cancel-then-resume: each build interrupts a Monte-Carlo run after 4
# repetitions, writing its resume state, then finishes it from that
# state; the cancelled and the resumed stdout must both match. The two
# resume files must be byte-identical, and each build must finish the
# file the other wrote to the same stdout, so a drift in the resume
# format fails here even when each build reads its own files back.
MONTE="-spec $SPEC -seed $SEED -large -shards 4 -reps 9 -checkpoints $CPS -heights 4 -loads"
for side in old new; do
	rm -f "$TMP/$side-resume.json"
	run "$TMP/$side-bnbsim" "$TMP/$side-cancel.txt" $MONTE -workers 3 -resume "$TMP/$side-resume.json" -cancel-after-reps 4
done
same=1
if ! cmp "$TMP/old-resume.json" "$TMP/new-resume.json"; then
	echo "RESUME FILE CHANGED vs $REV" >&2
	same=0
fi
for side in old new; do
	other=new
	[ "$side" = new ] && other=old
	cp "$TMP/$other-resume.json" "$TMP/$side-cross.json"
	run "$TMP/$side-bnbsim" "$TMP/$side-resumed.txt" $MONTE -workers 1 -resume "$TMP/$side-resume.json"
	run "$TMP/$side-bnbsim" "$TMP/$side-crossed.txt" $MONTE -workers 1 -resume "$TMP/$side-cross.json"
done
for phase in cancel resumed crossed; do
	if ! diff -u "$TMP/old-$phase.txt" "$TMP/new-$phase.txt"; then
		echo "OUTPUT CHANGED vs $REV: cancel-then-resume ($phase)" >&2
		same=0
	fi
done
if ! diff -u "$TMP/new-resumed.txt" "$TMP/new-crossed.txt"; then
	echo "OUTPUT CHANGED vs $REV: resuming the $REV resume file" >&2
	same=0
fi
record "cancel-then-resume: bnbsim $MONTE" "$same"

if [ "$changed" -gt 0 ]; then
	echo "$changed of $n command(s) changed vs $REV:$changedList" >&2
	exit 1
fi
echo "all $n command(s) byte-identical to $REV at -workers 1 and 3"
