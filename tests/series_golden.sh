#!/bin/sh
# vip_top --series golden-output test: a fixed W4/vip --ts run's
# series.json must render exactly as the checked-in expected text.
# The run is deterministic, so this pins the whole path from the
# time-series writer through vip_top's parsing, counter-rate
# derivation, thinning and sparkline formatting; any intentional
# output change shows up in review as a diff of the .expected file.
#
# Usage: tests/series_golden.sh [build-dir] [work-dir]
set -eu

BUILD=${1:-build}
WORK=${2:-series-golden-out}
SRCDIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
VIP_SIM="$BUILD/tools/vip_sim"
VIP_TOP="$BUILD/tools/vip_top"

for b in "$VIP_SIM" "$VIP_TOP"; do
    [ -x "$b" ] || { echo "missing binary: $b" >&2; exit 2; }
done
case "$VIP_SIM" in /*) ;; *) VIP_SIM="$(pwd)/$VIP_SIM";; esac
case "$VIP_TOP" in /*) ;; *) VIP_TOP="$(pwd)/$VIP_TOP";; esac

rm -rf "$WORK"
mkdir -p "$WORK"
# Render a bare filename so the "series" header line is
# machine-independent.
cd "$WORK"
"$VIP_SIM" --workload W4 --config vip --seed 1 --seconds 0.2 \
    --ts --ts-out series.json > sim.txt
"$VIP_TOP" --series series.json > got.txt
if ! diff -u "$SRCDIR/data/series-golden.expected" got.txt; then
    echo "vip_top --series output diverged from golden expectation" >&2
    exit 1
fi
echo "vip_top --series golden output: PASS"
