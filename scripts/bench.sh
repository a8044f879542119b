#!/usr/bin/env bash
# bench.sh — run the benchmark suite with -benchmem and record a JSON
# summary (ns/op, B/op, allocs/op, plus every custom metric) so the
# performance trajectory is tracked from PR to PR, then print the
# per-metric deltas against the most recent committed snapshot.
#
# Usage:
#   scripts/bench.sh                 # full suite, 1s per benchmark
#   scripts/bench.sh 'Step|Solo'     # only matching benchmarks
#   scripts/bench.sh '.' 5s          # full suite, 5s per benchmark
#
# Output: BENCH_<yyyymmdd>.json in the repo root (suffixed -2, -3, ...
# if that name is already committed — snapshots are history, never
# overwritten), plus the raw `go test` output on stdout and a delta
# table against the latest committed BENCH_*.json (via
# scripts/benchdelta). The snapshot is
#   {"host": {"cpu": ..., "gomaxprocs": N, "go": ..., "goos": ..., "goarch": ...},
#    "benchmarks": [{"name": ..., "iterations": N, "metrics": {"ns/op": ..., ...}}, ...]}
# The host record comes from go test's cpu:/goos:/goarch: header lines,
# the benchmark names' -N suffix (GOMAXPROCS; go test omits it at 1) and
# the toolchain's GOVERSION, so benchdelta can refuse to compare
# snapshots taken on different machines.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern="${1:-.}"
benchtime="${2:-1s}"
out="BENCH_$(date +%Y%m%d).json"
if git ls-files --error-unmatch "$out" >/dev/null 2>&1; then
    n=2
    while git ls-files --error-unmatch "BENCH_$(date +%Y%m%d)-$n.json" >/dev/null 2>&1; do
        n=$((n + 1))
    done
    out="BENCH_$(date +%Y%m%d)-$n.json"
fi
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" ./... | tee "$raw"

awk -v gover="$(go env GOVERSION)" '
BEGIN { n = 0; procs = 1; cpu = ""; goos = ""; goarch = "" }
/^cpu: / && cpu == "" { cpu = substr($0, 6); gsub(/["\\]/, "", cpu) }
/^goos: / && goos == "" { goos = $2 }
/^goarch: / && goarch == "" { goarch = $2 }
/^Benchmark/ && NF >= 3 {
    name = $1
    if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
    iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $i; unit = $(i + 1)
        if (metrics != "") metrics = metrics ", "
        metrics = metrics "\"" unit "\": " val
    }
    if (n > 0) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}", name, iters, metrics
    n++
}
END {
    printf "\n"
    printf "{\"cpu\": \"%s\", \"gomaxprocs\": %d, \"go\": \"%s\", \"goos\": \"%s\", \"goarch\": \"%s\"}\n", cpu, procs, gover, goos, goarch > hostfile
}
' hostfile="$out.host" "$raw" > "$out.body"

{
    echo "{\"host\": $(cat "$out.host"),"
    echo " \"benchmarks\": ["
    cat "$out.body"
    echo "]}"
} > "$out"
rm -f "$out.body" "$out.host"
echo "wrote $out"

# Delta table against the most recent committed snapshot (the committed
# content, via git show, so re-runs in a dirty tree still compare
# against the real baseline). Plain lexical sort would rank
# BENCH_D-2.json before BENCH_D.json ('-' < '.') and -10 before -2, so
# order by (date, numeric suffix) explicitly.
baseline="$(git ls-files 'BENCH_*.json' | awk '{
    name = $0
    d = $0; sub(/^BENCH_/, "", d); sub(/\.json$/, "", d)
    n = 0
    if (split(d, parts, "-") == 2) { d = parts[1]; n = parts[2] }
    printf "%s %09d %s\n", d, n, name
}' | sort | tail -1 | awk '{print $3}' || true)"
if [ -n "$baseline" ] && [ "$baseline" != "$out" ]; then
    base_tmp="$(mktemp)"
    if git show "HEAD:$baseline" > "$base_tmp" 2>/dev/null; then
        go run ./scripts/benchdelta "$base_tmp" "$out" || true
    fi
    rm -f "$base_tmp"
fi
