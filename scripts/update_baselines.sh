#!/bin/sh
# Regenerate the committed regression baselines in results/baselines/.
# Usage: scripts/update_baselines.sh [OUTDIR]
#
# Every paper artefact has a baseline: small fixed-scale runs
# (REPRO_SCALE=0.02, a subset of benchmarks) of fig5 and fig8 (swim),
# ext_smp and ext_shards, and every other figure on gcc, so they run
# in seconds yet still exercise every scheme, the bandwidth path, the
# SMP extension and sharded trees. cmt_figures leaves each figure's
# tables as <figure>.txt and its sweep as <figure>.json
# (tab_logic_overhead runs no sweep, so its table is its only output).
# The simulator is deterministic and the files carry only simulated
# results (no worker count, memo flag or host time), so they are
# byte-stable across machines and `diff -r` against a fresh run is the
# whole regression check: any changed byte is drift.
#
# After an intentional behaviour change: re-run this script with no
# arguments, inspect `git diff results/baselines/`, and commit the
# update alongside the change that caused it.
#
# The regress_baselines ctest uses the OUTDIR argument to regenerate
# the same sweeps into the build tree and runs
# `diff -r results/baselines OUTDIR`; the sanitizer jobs point
# CMT_BUILD_DIR at their preset build tree.
set -e
cd "$(dirname "$0")/.."
outdir="${1:-results/baselines}"
builddir="${CMT_BUILD_DIR:-build}"
scale="0.02"

run() {
    REPRO_SCALE="$scale" "$builddir"/bench/cmt_figures --jobs 2 \
        --out "$outdir" "$@"
}

run --filter swim fig5_bandwidth fig8_chunk_schemes
run ext_smp ext_shards
run --filter gcc fig3_ipc_schemes fig4_cache_contention \
    fig6_hash_throughput fig7_buffer_size tab_logic_overhead \
    abl_speculation abl_writealloc abl_arity ext_privacy

echo "baselines written to $outdir (REPRO_SCALE=$scale)"
