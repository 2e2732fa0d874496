#!/usr/bin/env sh
# check.sh — the pre-PR gate (documented in CONTRIBUTING.md).
#
# Runs, in order:
#   1. go build ./...                 everything compiles
#   2. go vet ./...                   the standard toolchain checks
#   3. gapvet ./...                   this repo's own invariants (see DESIGN.md);
#      asserted to exit 0 in under 60 seconds — the analysis is part of the
#      inner loop, so its cost is a gated budget, not a trend
#   4. gapvet -perf ./...             the compiler-assisted perf-lint tier
#      (DESIGN.md §8 "Compiler-facts join"): harvests escape/inline/BCE
#      diagnostics from a -gcflags compiler run and joins them against the
#      timed-region dataflow. The harvest invokes the compiler, so this tier
#      carries its own 120-second budget, separate from the pure-AST tier —
#      a cold -gcflags build cache pays once, warm runs land in seconds
#   5. go test ./...                  the full tier-1 suite
#   6. go test -race -short <tier>    the race-detector smoke tier: the
#      parallel substrate (par), the most race-prone executor (galois), and
#      the harness that drives every framework (core), on tiny graphs so the
#      whole sweep finishes in seconds.
#   7. go test -tags=grbcheck <tier>  the grbcheck sanitizer tier: rebuilds
#      the GraphBLAS substrate (and the shared frontier library, which keys
#      its conversion checks off the same tag) with runtime invariant
#      assertions enabled and re-runs grb, frontier, and their consumer
#      (lagraph) at -short scale, so a structurally corrupt vector/matrix/
#      frontier — or a direction dispatch whose push and pull products
#      disagree — panics at the operation boundary that received it (see
#      DESIGN.md "Runtime sanitizer").
#   8. go test -tags=graphguard <tier> the graphguard sanitizer tier: rebuilds
#      with CSR seal checks armed and re-runs graph plus the runner, so a
#      kernel that mutates shared graph memory panics at the trial boundary
#      naming the corrupted array (see DESIGN.md §9 "Graph seal").
#   9. go test -tags=chaos -short <tier> the fault-injection tier: rebuilds
#      the chaos injector armed and runs the end-to-end fault matrix
#      (DESIGN.md §9): injected panics, stalls, hangs, and output
#      corruption must surface as exactly the right per-cell status while
#      the suite, its journal, and its resume path keep working. A second
#      pass with both chaos and graphguard armed closes the loop: the
#      CorruptGraph fault must be caught by the seal check as Panicked.
#  10. go test -race -tags='chaos graphguard servecheck' <serve> the
#      serving-layer fault tier: the gapd daemon machinery (internal/serve)
#      re-run under the race detector with the chaos injector, graph seal
#      checks, and the lease-leak assertion all armed — injected
#      panics/stalls/hangs/corruption against a live server must shed,
#      retry, quarantine, and drain clean, and an abandoned sandbox must be
#      joined before the drain returns (DESIGN.md §11).
#  11. graphgen + gapbench graph-store e2e tier: generate the five suite
#      graphs once as format-v2 .sg files, then run a gapbench smoke over
#      them via -graphfile, so the whole serialize -> mmap-load -> provenance
#      -> kernel-verify chain is exercised exactly the way a measurement run
#      uses it (see DESIGN.md §3 "The storage arena").
#  12. gapbench -tune twice-through tier: runs the autotuner against a tiny
#      Kron build with a fresh schedule store, then runs it again on the same
#      store. The first pass must report tuning (writing the store), the
#      second must report reusing the stored schedule — the persistence
#      contract `-tune` exists for (see DESIGN.md "Schedule persistence").
#  13. gapd serving smoke tier: start the daemon on a unix socket over the
#      tier-11 graph files (servecheck armed), drive a mixed closed-loop
#      burst with cmd/workload, and require zero non-OK non-shed responses
#      and at least one answer served from a PR/CC snapshot (`cached` > 0);
#      then SIGTERM and require the drain to finish within its budget with
#      no leaked lease (the servecheck assertion panics the exit otherwise).
#  14. go test -bench=. -benchtime=1x the benchmark bit-rot guard: every
#      benchmark (suite cells, ablations, and the ingest-pipeline
#      Build/Transpose groups — scripts/bench.sh's evidence included)
#      runs exactly one iteration at the test scale, so a
#      signature drift or a panic on a bench-only path fails the gate
#      instead of surfacing months later in a measurement run.
#
# Any failure stops the script with a non-zero exit.

set -eu

cd "$(dirname "$0")/.."

say() { printf '\n== %s\n' "$*"; }

say "go build ./..."
go build ./...

say "go vet ./..."
go vet ./...

say "gapvet ./... (must exit 0 in <60s)"
gapvet_start=$(date +%s)
go run ./cmd/gapvet ./...
gapvet_elapsed=$(( $(date +%s) - gapvet_start ))
if [ "$gapvet_elapsed" -ge 60 ]; then
    echo "gapvet took ${gapvet_elapsed}s, budget is 60s" >&2
    exit 1
fi
echo "gapvet clean in ${gapvet_elapsed}s"

say "gapvet -perf ./... (compiler harvest included; must exit 0 in <120s)"
perf_start=$(date +%s)
go run ./cmd/gapvet -perf ./...
perf_elapsed=$(( $(date +%s) - perf_start ))
if [ "$perf_elapsed" -ge 120 ]; then
    echo "gapvet -perf took ${perf_elapsed}s, budget is 120s" >&2
    exit 1
fi
echo "gapvet -perf clean in ${perf_elapsed}s"

say "go test ./..."
go test ./...

say "race smoke tier (go test -race -short)"
go test -race -short ./internal/par/... ./internal/galois/... ./internal/core/...

say "grbcheck sanitizer tier (go test -tags=grbcheck -short)"
go test -tags=grbcheck -short ./internal/grb/ ./internal/frontier/ ./internal/lagraph/

say "graphguard sanitizer tier (go test -tags=graphguard -short)"
go test -tags=graphguard -short ./internal/graph/ ./internal/core/

say "chaos fault-injection tier (go test -tags=chaos -short)"
go test -tags=chaos -short ./internal/core/ ./internal/chaos/

say "chaos+graphguard tier (go test -tags='chaos graphguard' -short)"
go test -tags='chaos graphguard' -short ./internal/core/

say "serving-layer fault tier (go test -race -tags='chaos graphguard servecheck' -short)"
go test -race -tags='chaos graphguard servecheck' -short ./internal/serve/

say "graph-store e2e tier (graphgen once, gapbench mmap smoke)"
GDIR="$(mktemp -d)"
TDIR="$(mktemp -d)"
trap 'rm -rf "$GDIR" "$TDIR"' EXIT
go run ./cmd/graphgen -out "$GDIR" -scale 6 >/dev/null
SGFILES="$(ls "$GDIR"/*.sg | tr '\n' ',' | sed 's/,$//')"
go run ./cmd/gapbench -table IV -graphfile "$SGFILES" -kernels BFS,TC -frameworks GAP -mode baseline -trials 1 -q >/dev/null
echo "graph-store e2e ok (5 graphs saved, mmap-loaded, verified)"

say "schedule-store persistence tier (gapbench -tune twice over one store)"
TUNE_ARGS="-tune -tunefile $TDIR/schedules.json -graphs Kron -scale 6 -kernels BFS -frameworks GraphIt -mode optimized -trials 1 -q"
go run ./cmd/gapbench $TUNE_ARGS 2>"$TDIR/first.log" >/dev/null
grep -q 'tune: tuned 1 schedules, reused 0' "$TDIR/first.log" || {
    echo "first -tune run did not tune a fresh schedule:" >&2
    cat "$TDIR/first.log" >&2
    exit 1
}
go run ./cmd/gapbench $TUNE_ARGS 2>"$TDIR/second.log" >/dev/null
grep -q 'tune: tuned 0 schedules, reused 1' "$TDIR/second.log" || {
    echo "second -tune run re-tuned instead of loading the stored schedule:" >&2
    cat "$TDIR/second.log" >&2
    exit 1
}
echo "schedule store persisted and reloaded ok"

say "gapd serving smoke tier (daemon + mixed burst + SIGTERM drain)"
go build -tags=servecheck -o "$TDIR/gapd" ./cmd/gapd
go build -o "$TDIR/workload" ./cmd/workload
"$TDIR/gapd" -listen "unix:$TDIR/gapd.sock" -graphfile "$SGFILES" -pool 2 -workers 2 \
    2>"$TDIR/gapd.log" &
GAPD_PID=$!
for _i in $(seq 1 100); do
    [ -S "$TDIR/gapd.sock" ] && break
    sleep 0.1
done
[ -S "$TDIR/gapd.sock" ] || { echo "gapd never bound its socket:" >&2; cat "$TDIR/gapd.log" >&2; exit 1; }
"$TDIR/workload" -addr "unix:$TDIR/gapd.sock" -clients 8 -duration 3s -zipf 1.3 \
    >"$TDIR/drive.log" 2>&1 || { cat "$TDIR/drive.log" >&2; exit 1; }
# The gate: every response is either OK or a deliberate shed — a failed
# query (deadline, panic, bad request) under plain load is a serving bug.
grep -q 'failed 0)' "$TDIR/drive.log" || {
    echo "gapd smoke burst produced failed responses:" >&2
    cat "$TDIR/drive.log" >&2
    exit 1
}
# The snapshot gate: the default mix is 40% PR/CC, whose answers are
# computed once per graph epoch and then served cached — a burst with no
# cached answer means the hit path is dead.
grep -Eq 'cached [1-9][0-9]*' "$TDIR/drive.log" || {
    echo "gapd smoke burst served no cached PR/CC answer:" >&2
    cat "$TDIR/drive.log" >&2
    exit 1
}
drain_start=$(date +%s)
kill -TERM "$GAPD_PID"
wait "$GAPD_PID" || { echo "gapd exited non-zero on SIGTERM drain:" >&2; cat "$TDIR/gapd.log" >&2; exit 1; }
drain_elapsed=$(( $(date +%s) - drain_start ))
if [ "$drain_elapsed" -gt 10 ]; then
    echo "gapd drain took ${drain_elapsed}s, budget is 10s" >&2
    exit 1
fi
echo "gapd smoke ok ($(grep -o 'queries [0-9]*' "$TDIR/drive.log" | head -1), $(grep -o 'cached [0-9]*' "$TDIR/drive.log" | head -1), drained in ${drain_elapsed}s)"

say "benchmark bit-rot guard (go test -run='^$' -bench=. -benchtime=1x)"
go test -run='^$' -bench=. -benchtime=1x .

say "all checks passed"
