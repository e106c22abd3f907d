package stagedb

// Mixed OLTP + analytics benchmarks for the MVCC snapshot store: the claim
// under test is that long analytic scans and short writes no longer serialize
// on each other. Readers run against a fixed snapshot and take only a shared
// DDL latch; writers append new versions under the table write lock. So
// writer throughput should be flat as concurrent scans are added, and a
// streaming reader's time-to-first-row should be flat under write load.
// bench.sh captures both as BENCH_mixed.json; bench_gate.sh holds the
// one-concurrent-scan writer throughput at >= 0.5x uncontended.

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// startScanners launches n analytic readers that loop full streaming scans
// of padded until ctx is canceled. Each iteration drains the cursor, so a
// scan is always in flight while the writer loop runs. Every scanner gets
// its own Conn: a session serves one request at a time, like a SQL
// connection.
func startScanners(b *testing.B, db *DB, ctx context.Context, n int) *sync.WaitGroup {
	b.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := db.Conn()
			for ctx.Err() == nil {
				rows, err := conn.QueryContext(ctx, "SELECT id, grp FROM padded")
				if err != nil {
					if ctx.Err() == nil {
						b.Error(err)
					}
					return
				}
				for rows.Next() {
				}
				rows.Close()
			}
		}()
	}
	return &wg
}

// BenchmarkMixedWriter measures single-row update latency with 0, 1, and 4
// concurrent full-table analytic scans. Before MVCC the readers' shared
// table locks would have gated every commit on the slowest scan; with
// snapshot reads the three variants should differ only by CPU contention.
// The conflicts metric must stay 0: a lone writer never loses first
// committer wins.
func BenchmarkMixedWriter(b *testing.B) {
	for _, scans := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("scans=%d", scans), func(b *testing.B) {
			db := mustOpen(b, Options{})
			defer db.Close()
			loadPadded(b, db, 3000)
			ctx, cancel := context.WithCancel(context.Background())
			wg := startScanners(b, db, ctx, scans)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec("UPDATE padded SET grp = grp + 1 WHERE id = ?", i%3000); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cancel()
			wg.Wait()
			b.ReportMetric(float64(db.MVCCStats().Conflicts), "conflicts")
		})
	}
}

// BenchmarkMixedFirstRow measures a streaming reader's time-to-first-row on
// an idle engine and under sustained write load (4 writers updating disjoint
// key stripes). The reader only waits for the first exchange page, and the
// writers never hold a lock the scan needs, so any gap between the variants
// is CPU contention with the closed-loop writers, not lock waits.
func BenchmarkMixedFirstRow(b *testing.B) {
	for _, m := range []struct {
		name    string
		writers int
	}{{"idle", 0}, {"write-loaded", 4}} {
		b.Run(m.name, func(b *testing.B) {
			db := mustOpen(b, Options{})
			defer db.Close()
			loadPadded(b, db, 3000)
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for w := 0; w < m.writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					conn := db.Conn() // one session per writer
					// Stripe the key space so background writers never
					// contend for the same row (no serialization failures).
					for i := 0; ctx.Err() == nil; i++ {
						id := (i%750)*4 + w
						if _, err := conn.ExecContext(ctx, "UPDATE padded SET grp = grp + 1 WHERE id = ?", id); err != nil && ctx.Err() == nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := db.QueryContext(context.Background(), "SELECT id, grp FROM padded")
				if err != nil {
					b.Fatal(err)
				}
				if !rows.Next() {
					b.Fatal("no rows")
				}
				if err := rows.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cancel()
			wg.Wait()
		})
	}
}

// BenchmarkPointUpdate measures a primary-key point UPDATE at two table
// sizes. UPDATE targets are planned through the B+tree like a SELECT's, and
// writers reclaim dead versions on the pages they touch, so the cost must
// not grow with the table: bench_gate.sh holds rows=10k within 2x of
// rows=1k.
func BenchmarkPointUpdate(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%dk", n/1000), func(b *testing.B) {
			db := mustOpen(b, Options{})
			defer db.Close()
			loadPadded(b, db, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A prime stride scatters the updates over the whole table.
				if _, err := db.Exec("UPDATE padded SET grp = grp + 1 WHERE id = ?", (i*7919)%n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
