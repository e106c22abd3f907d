#!/usr/bin/env sh
# bench.sh — run the perf-trajectory benchmarks and emit JSON datapoints,
# one object per benchmark with ns/op, B/op, allocs/op, and any custom
# metrics (heap-reads/op, share-fanout, probe-pages/op). Commit fresh
# datapoints when hot-path performance work lands.
#
#   BENCH_scan.json — scan path: shared circular scans, streaming LIMIT.
#   BENCH_exec.json — vectorized exec path: filter/join/agg kernel micro-
#                     benches, the streaming-join LIMIT bench, row hashing,
#                     the SharedScan headline numbers, and the client API
#                     benches (streaming time-to-first-row, prepared vs
#                     unprepared re-execution).
#   BENCH_sort.json — memory-bounded stateful operators: in-memory vs
#                     spilling external sort, Top-N vs full sort + limit,
#                     and the grace-spilling aggregation/join vs their
#                     in-memory forms.
#   BENCH_wal.json  — durable commit path: group commit vs per-commit
#                     fsync at 1/8/32 concurrent writers, at two layers:
#                     DWALCommit is the log alone (append + commit + wait
#                     durable), WALCommit is the same policy matrix through
#                     the full SQL pipeline (ns/op is commit latency;
#                     commits/fsync is the measured group size).
#   BENCH_server.json — wire protocol: point-select qps and p99 at 1/32/256
#                     concurrent clients, and the overload matrix (a single
#                     execute worker at 8x closed-loop load) with admission
#                     control on and off — the shed-mode p99 is the number
#                     bench_gate.sh holds within 3x of the uncontended p99.
#   BENCH_mixed.json — MVCC mixed OLTP + analytics: writer commit latency
#                     with 0/1/4 concurrent full-table scans running
#                     (conflicts/op confirms snapshot readers never force
#                     writer retries), and a snapshot reader's time-to-
#                     first-row on an idle engine vs under closed-loop
#                     update load, and a primary-key point UPDATE at 1k
#                     vs 10k rows. bench_gate.sh holds writer throughput
#                     under one scan at >= 0.5x uncontended and the 10k-row
#                     point UPDATE within 2x of the 1k-row one.
#
#   ./bench.sh              # default -benchtime (stable numbers, slower)
#   BENCHTIME=5x ./bench.sh # quick smoke datapoint
set -e
cd "$(dirname "$0")" || exit 1

to_json() {
	awk '
	BEGIN { print "[" ; first = 1 }
	/^Benchmark/ {
		if (!first) printf(",\n"); first = 0
		printf("  {\"name\": \"%s\", \"iterations\": %s", $1, $2)
		for (i = 3; i < NF; i += 2) {
			unit = $(i + 1)
			gsub(/"/, "", unit)
			printf(", \"%s\": %s", unit, $i)
		}
		printf("}")
	}
	END { print "\n]" }
	'
}

scan_out=$(go test . -run '^$' -bench 'SharedScan|ScanStreamLimit' \
	-benchtime "${BENCHTIME:-2s}" -benchmem)
echo "$scan_out" | to_json > BENCH_scan.json
echo "wrote BENCH_scan.json:"
cat BENCH_scan.json

exec_out=$(go test . -run '^$' -bench 'SharedScan|JoinStreamLimit|ClientStreamFirstRow|PreparedExec' \
	-benchtime "${BENCHTIME:-2s}" -benchmem
go test ./internal/exec -run '^$' -bench 'FilterKernel|AggKernel|HashJoinStream' \
	-benchtime "${BENCHTIME:-2s}" -benchmem
go test ./internal/value -run '^$' -bench 'RowHash' \
	-benchtime "${BENCHTIME:-2s}" -benchmem)
echo "$exec_out" | to_json > BENCH_exec.json
echo "wrote BENCH_exec.json:"
cat BENCH_exec.json

sort_out=$(go test ./internal/exec -run '^$' -bench 'ExtSort|TopN|SpillAgg|SpillJoin' \
	-benchtime "${BENCHTIME:-2s}" -benchmem)
echo "$sort_out" | to_json > BENCH_sort.json
echo "wrote BENCH_sort.json:"
cat BENCH_sort.json

wal_out=$(go test ./internal/txn -run '^$' -bench 'DWALCommit' \
	-benchtime "${BENCHTIME:-2s}" -benchmem
go test . -run '^$' -bench 'WALCommit' \
	-benchtime "${BENCHTIME:-2s}" -benchmem)
echo "$wal_out" | to_json > BENCH_wal.json
echo "wrote BENCH_wal.json:"
cat BENCH_wal.json

server_out=$(go test ./internal/server -run '^$' -bench 'ServerQPS|ServerOverload' \
	-benchtime "${BENCHTIME:-2s}")
echo "$server_out" | to_json > BENCH_server.json
echo "wrote BENCH_server.json:"
cat BENCH_server.json

mixed_out=$(go test . -run '^$' -bench 'MixedWriter|MixedFirstRow|PointUpdate' \
	-benchtime "${BENCHTIME:-2s}" -benchmem)
echo "$mixed_out" | to_json > BENCH_mixed.json
echo "wrote BENCH_mixed.json:"
cat BENCH_mixed.json
