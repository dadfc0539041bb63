#!/bin/sh
# Regenerate the committed regression baselines in results/baselines/.
# Usage: scripts/update_baselines.sh [OUTDIR]
#
# Baselines are simulator sweeps only: small fixed-scale runs
# (REPRO_SCALE=0.02, a subset of benchmarks) of fig3 (gcc), fig5 and
# fig8 (swim), ext_smp and ext_shards, so they run in seconds yet
# still exercise every scheme, the bandwidth path, the SMP extension
# and sharded trees. The simulator is deterministic, so these JSON
# files are byte-stable across machines; cmt_regress compares fresh
# runs against them and fails the build on any drift.
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

echo "baselines written to $outdir (REPRO_SCALE=$scale)"
