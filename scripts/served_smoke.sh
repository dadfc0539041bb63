#!/bin/sh
# End-to-end smoke test for the verification daemon.
#
# Starts cmt_served on a scratch socket and drives it with the
# 8-client cmt_loadgen workload, whose shadow check and closing
# verifyStore pass fail the run on any divergence. Then SIGTERM shuts
# the daemon down gracefully - which must persist every store through
# the crash-safe save path - and a --load restart must serve the
# snapshot cleanly. That parallel clients leave the store exactly as a
# serial replay would is proven in-process, on whole store images, by
# ServedConcurrency.ParallelClientsMatchSerialReplayByteForByte.
#
# Usage: scripts/served_smoke.sh [BUILD_DIR [SCRATCH_DIR]]
# BUILD_DIR defaults to $CMT_BUILD_DIR, then ./build. The scratch
# directory (socket, state) is removed on success when the script
# created it itself.
set -e
cd "$(dirname "$0")/.."
builddir="${1:-${CMT_BUILD_DIR:-build}}"
if [ -n "$2" ]; then
    scratch="$2"
    made_scratch=0
else
    scratch="$(mktemp -d)"
    made_scratch=1
fi
state="$scratch/state"
sock="$scratch/served.sock"
mkdir -p "$state"

echo "== daemon up =="
"$builddir"/tools/cmt_served --socket "$sock" --state-dir "$state" &
pid=$!
trap 'kill -TERM "$pid" 2> /dev/null || true' EXIT

echo "== parallel load (8 clients) =="
"$builddir"/tools/cmt_loadgen --socket "$sock" --ops 100

echo "== graceful shutdown persists the store =="
kill -TERM "$pid"
wait "$pid"
trap - EXIT
test -f "$state/store0.image"
test -f "$state/store0.roots"

echo "== --load restart serves the snapshot =="
"$builddir"/tools/cmt_served --socket "$sock" --state-dir "$state" \
    --load &
pid=$!
trap 'kill -TERM "$pid" 2> /dev/null || true' EXIT
"$builddir"/tools/cmt_loadgen --socket "$sock" --clients 4 --ops 100
kill -TERM "$pid"
wait "$pid"
trap - EXIT

if [ "$made_scratch" = 1 ]; then
    rm -rf "$scratch"
fi
echo "served_smoke: PASS"
