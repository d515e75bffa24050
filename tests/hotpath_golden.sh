#!/bin/sh
# Hot-path golden test: short vip_sim cells that walk the IP stream
# engine's retry, spill, transaction-switch, job-mode and round-robin
# paths must reproduce the checked-in digest records and stats.json
# exactly.  The digest stream pins the simulated state at the end of
# the run; stats.json adds what the digests leave out, energy above
# all, so every stat is compared under an exact tolerance.
#
# Usage: tests/hotpath_golden.sh [build-dir] [work-dir]
# With HOTPATH_GOLDEN_UPDATE=1 the expected files are rewritten from
# this build instead (for a declared model change).
set -eu

BUILD=${1:-build}
WORK=${2:-hotpath-golden-out}
SRCDIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
DATA="$SRCDIR/data/hotpath-golden"
VIP_SIM="$BUILD/tools/vip_sim"
STATS_DIFF="$BUILD/tools/vip_stats_diff"

for b in "$VIP_SIM" "$STATS_DIFF"; do
    [ -x "$b" ] || { echo "missing binary: $b" >&2; exit 2; }
done

rm -rf "$WORK"
mkdir -p "$WORK"

fail=0
cell() {
    name=$1
    shift
    "$VIP_SIM" --seconds 0.1 --seed 1 --audit final \
        --digest-out "$WORK/$name.digest.raw" \
        --stats-out "$WORK/$name.stats.json" "$@" > "$WORK/$name.txt"
    # Header lines carry build provenance (git hash, compiler).
    grep -v '^#' "$WORK/$name.digest.raw" > "$WORK/$name.digest"
    if [ "${HOTPATH_GOLDEN_UPDATE:-0}" = 1 ]; then
        mkdir -p "$DATA"
        cp "$WORK/$name.digest" "$DATA/$name.digest"
        cp "$WORK/$name.stats.json" "$DATA/$name.stats.json"
        return
    fi
    if ! diff -u "$DATA/$name.digest" "$WORK/$name.digest"; then
        echo "$name: digest records diverged" >&2
        fail=1
    fi
    if ! "$STATS_DIFF" --tol '*=exact' "$DATA/$name.stats.json" \
            "$WORK/$name.stats.json"; then
        echo "$name: stats.json diverged" >&2
        fail=1
    fi
}

cell w4-vip-faults --workload W4 --config vip --fault-plan heavy
cell w4-vip-spill --workload W4 --config vip --spill
cell w4-iptoip-fb --workload W4 --config iptoip-fb
cell w7-baseline --workload W7 --config baseline
cell w4-vip-rr2 --workload W4 --config vip --sched rr --lanes 2

[ "$fail" = 0 ] || exit 1
echo "hot-path golden cells: PASS"
