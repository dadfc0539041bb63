#!/bin/sh
# Regenerate the committed regression baselines in results/baselines/.
# Usage: scripts/update_baselines.sh [OUTDIR]
#
# Baselines are small fixed-scale sweeps (REPRO_SCALE=0.02, a subset
# of benchmarks) so they run in seconds yet still exercise every
# scheme, the bandwidth path, and the SMP extension. The simulator is
# deterministic, so these JSON files are byte-stable across machines;
# cmt_regress compares fresh runs against them and fails the build on
# any drift.
#
# After an intentional behaviour change: re-run this script with no
# arguments, inspect `git diff results/baselines/`, and commit the
# update alongside the change that caused it.
#
# CI and the regress_baselines ctest use the OUTDIR argument to
# regenerate the same sweeps into a scratch directory and compare them
# against the committed ones; the sanitizer jobs point CMT_BUILD_DIR at
# their preset build tree.
set -e
cd "$(dirname "$0")/.."
outdir="${1:-results/baselines}"
builddir="${CMT_BUILD_DIR:-build}"
scale="0.02"
mkdir -p "$outdir"

run() {
    bin="$1"; shift
    echo "== $bin =="
    REPRO_SCALE="$scale" "$builddir"/bench/"$bin" --jobs 2 \
        --json "$outdir/$bin.json" "$@" > /dev/null
}

run fig3_ipc_schemes --filter gcc
run fig5_bandwidth --filter swim
run fig8_chunk_schemes --filter swim
run ext_smp
run ext_shards

# cmt_loadgen needs a live daemon: bring one up on a scratch socket,
# drive the deterministic multi-client workload, and snapshot the
# per-client result rows. Checksums are interleaving-independent, so
# the rows are stable across machines; cmt_regress ignores the timing
# fields.
echo "== cmt_loadgen =="
sock="$(mktemp -u /tmp/cmt_baseline_XXXXXX).sock"
"$builddir"/tools/cmt_served --socket "$sock" 2> /dev/null &
served_pid=$!
# A failing cmt_loadgen exits the script under set -e; never leave the
# daemon running behind it.
trap 'kill -TERM "$served_pid" 2> /dev/null || true' EXIT
REPRO_SCALE="$scale" "$builddir"/tools/cmt_loadgen --socket "$sock" \
    --json "$outdir/cmt_loadgen.json" 2> /dev/null
kill -TERM "$served_pid"
wait "$served_pid"
trap - EXIT

echo "baselines written to $outdir (REPRO_SCALE=$scale)"
