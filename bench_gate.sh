#!/usr/bin/env sh
# bench_gate.sh — CI allocation-regression gates for the vectorized exec
# path. Fails if a gated benchmark's allocs/op regresses more than 20% over
# its committed baseline:
#
#   - BenchmarkSharedScan/staged-unshared vs BENCH_scan.json. The gate keys
#     on the unshared variant: its allocation count is a deterministic
#     function of the query mix (8 private scans, no work sharing), whereas
#     staged-shared allocs depend on how many queries manage to attach to an
#     in-flight wheel — scheduler- and machine-dependent, which would make a
#     20% margin flaky on slow CI runners.
#   - BenchmarkTopN vs BENCH_sort.json. Top-N must stay O(k): a fixed-size
#     heap over a 50k-row input. Any accidental materialization or per-row
#     key allocation shows up as an allocs/op explosion here.
#   - BenchmarkDWALCommit group-32w vs sync-32w, run fresh (not vs baseline:
#     both sides run back to back on the same disk, so the ratio is
#     machine-independent). Group commit must deliver at least 3x the
#     per-commit-fsync commit throughput at 32 concurrent writers — the
#     whole point of parking committers on a shared flusher is amortizing
#     the fsync. The gate runs at the log layer (internal/txn) where the
#     mechanism is undiluted by SQL pipeline CPU.
#   - BenchmarkServerOverload shed vs uncontended, run fresh like the WAL
#     gate (both variants back to back on the same machine, so the ratio is
#     machine-independent). With admission control on, the p99 of admitted
#     queries at 8x overload must stay within 3x of the uncontended p99 —
#     load shedding trades availability for flat tail latency, and this is
#     the flat-tail half of that bargain. The unshed variant is printed for
#     contrast: its queue grows with the client count.
#   - BenchmarkMixedWriter scans=1 vs scans=0, run fresh like the WAL gate.
#     Writer commit throughput with one concurrent full-table snapshot scan
#     must stay at >= 0.5x the uncontended rate — the MVCC bargain is that
#     readers cost writers CPU share at most, never lock waits, so a single
#     analytics scan may not halve OLTP throughput.
#   - BenchmarkPointUpdate rows=10k vs rows=1k, run fresh like the WAL gate.
#     A primary-key point UPDATE on a 10x larger table must stay within 2x
#     of the small one: DML targets are planned through the B+tree and
#     writers reclaim dead versions on the pages they touch, so point writes
#     must not scale with the table.
set -e
cd "$(dirname "$0")" || exit 1

# gate BASELINE_FILE BASELINE_PATTERN BENCH_PKG BENCH_PATTERN
gate() {
	file=$1
	pat=$2
	pkg=$3
	bench=$4
	base=$(awk -F'"allocs/op": ' "/$pat/ { print \$2 + 0; exit }" "$file")
	if [ -z "$base" ] || [ "$base" -le 0 ] 2>/dev/null; then
		echo "bench_gate: no $pat allocs/op baseline in $file" >&2
		exit 1
	fi
	out=$(go test "$pkg" -run '^$' -bench "$bench" -benchtime 5x -benchmem)
	echo "$out"
	cur=$(echo "$out" | awk '/^Benchmark/ { for (i = 1; i <= NF; i++) if ($i == "allocs/op") { print $(i-1); exit } }')
	if [ -z "$cur" ]; then
		echo "bench_gate: benchmark $bench produced no allocs/op datapoint" >&2
		exit 1
	fi
	awk -v cur="$cur" -v base="$base" -v name="$bench" 'BEGIN {
		lim = base * 1.2
		if (cur > lim) {
			printf("bench_gate: %s allocs/op regression: %d > %.0f (baseline %d + 20%%)\n", name, cur, lim, base)
			exit 1
		}
		printf("bench_gate: %s allocs/op ok: %d <= %.0f (baseline %d + 20%%)\n", name, cur, lim, base)
	}'
}

gate BENCH_scan.json 'staged-unshared' . 'SharedScan/staged-unshared'
gate BENCH_sort.json 'BenchmarkTopN[-"]' ./internal/exec 'BenchmarkTopN$'

# wal_gate: group commit must beat per-commit fsync by >= 3x ns/op at 32
# concurrent writers. Both variants run back to back on the same machine.
wal_gate() {
	out=$(go test ./internal/txn -run '^$' -bench 'DWALCommit/(group|sync)-32w' -benchtime "${WAL_GATE_BENCHTIME:-1s}")
	echo "$out"
	group=$(echo "$out" | awk '/group-32w/ { for (i = 1; i <= NF; i++) if ($i == "ns/op") { print $(i-1); exit } }')
	syncv=$(echo "$out" | awk '/sync-32w/ { for (i = 1; i <= NF; i++) if ($i == "ns/op") { print $(i-1); exit } }')
	if [ -z "$group" ] || [ -z "$syncv" ]; then
		echo "bench_gate: WALCommit produced no ns/op datapoints" >&2
		exit 1
	fi
	awk -v g="$group" -v s="$syncv" 'BEGIN {
		ratio = s / g
		if (ratio < 3.0) {
			printf("bench_gate: group commit only %.2fx per-commit fsync at 32 writers (need >= 3x): group %.0f ns/op, sync %.0f ns/op\n", ratio, g, s)
			exit 1
		}
		printf("bench_gate: group commit %.2fx per-commit fsync at 32 writers (>= 3x): group %.0f ns/op, sync %.0f ns/op\n", ratio, g, s)
	}'
}
wal_gate

# server_gate: with shedding on, overload p99 of admitted queries must stay
# within 3x of the uncontended p99. All three variants run back to back.
server_gate() {
	out=$(go test ./internal/server -run '^$' -bench 'ServerOverload' -benchtime "${SERVER_GATE_BENCHTIME:-2s}")
	echo "$out"
	uncont=$(echo "$out" | awk '/uncontended/ { for (i = 1; i <= NF; i++) if ($i == "p99-ms") { print $(i-1); exit } }')
	shed=$(echo "$out" | awk '/\/shed/ { for (i = 1; i <= NF; i++) if ($i == "p99-ms") { print $(i-1); exit } }')
	noshed=$(echo "$out" | awk '/noshed/ { for (i = 1; i <= NF; i++) if ($i == "p99-ms") { print $(i-1); exit } }')
	if [ -z "$uncont" ] || [ -z "$shed" ]; then
		echo "bench_gate: ServerOverload produced no p99-ms datapoints" >&2
		exit 1
	fi
	awk -v u="$uncont" -v sh="$shed" -v ns="$noshed" 'BEGIN {
		ratio = sh / u
		if (ratio > 3.0) {
			printf("bench_gate: shed-mode overload p99 %.2fx uncontended (need <= 3x): shed %.2f ms, uncontended %.2f ms, unshed %.2f ms\n", ratio, sh, u, ns)
			exit 1
		}
		printf("bench_gate: shed-mode overload p99 %.2fx uncontended (<= 3x): shed %.2f ms, uncontended %.2f ms, unshed %.2f ms\n", ratio, sh, u, ns)
	}'
}
server_gate

# mixed_gate: writer commit throughput with one concurrent snapshot scan
# must be >= 0.5x the uncontended rate. Both variants run back to back.
mixed_gate() {
	out=$(go test . -run '^$' -bench 'MixedWriter/scans=(0|1)$' -benchtime "${MIXED_GATE_BENCHTIME:-1s}")
	echo "$out"
	ns0=$(echo "$out" | awk '/scans=0/ { for (i = 1; i <= NF; i++) if ($i == "ns/op") { print $(i-1); exit } }')
	ns1=$(echo "$out" | awk '/scans=1/ { for (i = 1; i <= NF; i++) if ($i == "ns/op") { print $(i-1); exit } }')
	if [ -z "$ns0" ] || [ -z "$ns1" ]; then
		echo "bench_gate: MixedWriter produced no ns/op datapoints" >&2
		exit 1
	fi
	awk -v u="$ns0" -v s="$ns1" 'BEGIN {
		ratio = u / s
		if (ratio < 0.5) {
			printf("bench_gate: writer under one scan at %.2fx uncontended throughput (need >= 0.5x): uncontended %.0f ns/op, one scan %.0f ns/op\n", ratio, u, s)
			exit 1
		}
		printf("bench_gate: writer under one scan at %.2fx uncontended throughput (>= 0.5x): uncontended %.0f ns/op, one scan %.0f ns/op\n", ratio, u, s)
	}'
}
mixed_gate

# point_gate: a point UPDATE at 10k rows must stay within 2x of the same
# UPDATE at 1k rows. Both variants run back to back.
point_gate() {
	out=$(go test . -run '^$' -bench 'PointUpdate/rows=(1|10)k$' -benchtime "${POINT_GATE_BENCHTIME:-1s}")
	echo "$out"
	small=$(echo "$out" | awk '/rows=1k/ { for (i = 1; i <= NF; i++) if ($i == "ns/op") { print $(i-1); exit } }')
	big=$(echo "$out" | awk '/rows=10k/ { for (i = 1; i <= NF; i++) if ($i == "ns/op") { print $(i-1); exit } }')
	if [ -z "$small" ] || [ -z "$big" ]; then
		echo "bench_gate: PointUpdate produced no ns/op datapoints" >&2
		exit 1
	fi
	awk -v s="$small" -v b="$big" 'BEGIN {
		ratio = b / s
		if (ratio > 2.0) {
			printf("bench_gate: point UPDATE at 10k rows %.2fx the 1k-row cost (need <= 2x): 10k %.0f ns/op, 1k %.0f ns/op\n", ratio, b, s)
			exit 1
		}
		printf("bench_gate: point UPDATE at 10k rows %.2fx the 1k-row cost (<= 2x): 10k %.0f ns/op, 1k %.0f ns/op\n", ratio, b, s)
	}'
}
point_gate
