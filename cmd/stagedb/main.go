// Command stagedb is an interactive SQL shell over the staged engine.
//
//	$ go run ./cmd/stagedb [-data DIR] [-sync]
//	stagedb> CREATE TABLE t (id INT PRIMARY KEY, name TEXT);
//	stagedb> INSERT INTO t VALUES (1, 'ann');
//	stagedb> SELECT * FROM t;
//
// With -data (or STAGEDB_DATADIR) the database is durable: tables live in a
// file-backed page store under the directory, commits are written ahead to a
// group-committed log, and reopening the shell recovers them. -sync fsyncs
// every commit individually instead of group-committing. SIGINT/SIGTERM
// checkpoint and close the database before exiting, so an interrupted
// durable shell reopens without log replay.
//
// With -connect the shell is a network client to a running stagedbd server
// instead of opening an embedded database; -tenant names the admission
// bucket the connection counts against.
//
// Meta commands: \stages (per-stage monitors, including the wal
// pseudo-stage on a durable database), \checkpoint, \explain
// <select|update|delete>, \quit (embedded mode; remote mode supports \quit).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/metrics"
)

func main() {
	dataDir := flag.String("data", "", "data directory for a durable database (default $STAGEDB_DATADIR, empty = in-memory)")
	syncEvery := flag.Bool("sync", false, "fsync the log on every commit instead of group commit")
	connect := flag.String("connect", "", "address of a stagedbd server to connect to instead of opening an embedded database")
	tenant := flag.String("tenant", "", "tenant name for server admission quotas (with -connect)")
	flag.Parse()
	if *connect != "" {
		remoteShell(*connect, *tenant)
		return
	}
	opts := stagedb.Options{DataDir: *dataDir}
	if *syncEvery {
		opts.Durability = stagedb.DurabilitySync
	}
	db, err := stagedb.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stagedb:", err)
		os.Exit(1)
	}
	// One close path shared by the normal exit and the signal handler: a
	// durable database must checkpoint and release its WAL exactly once,
	// not die mid-fsync and pay a recovery on the next open.
	var closeOnce sync.Once
	closeDB := func() {
		closeOnce.Do(func() {
			if err := db.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "stagedb: close:", err)
			}
		})
	}
	defer closeDB()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		signal.Stop(sigc) // a second signal kills the process the default way
		fmt.Fprintln(os.Stderr, "\nstagedb: signal received; checkpointing and closing")
		closeDB()
		os.Exit(0)
	}()
	if db.Durable() {
		fmt.Println("durable: data under", *dataDir+envDirNote(*dataDir))
	}
	conn := db.Conn()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("stagedb — staged database system (CIDR 2003 reproduction). \\quit to exit.")
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("stagedb> ")
		} else {
			fmt.Print("    ...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !meta(db, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmt := buf.String()
			buf.Reset()
			runStatement(conn, stmt)
		}
		prompt()
	}
}

// remoteShell is the -connect REPL: same loop, statements travel to a
// stagedbd server, SELECTs stream back one page frame at a time.
func remoteShell(addr, tenant string) {
	ctx := context.Background()
	c, err := client.Dial(ctx, addr, client.Options{Tenant: tenant})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stagedb:", err)
		os.Exit(1)
	}
	defer c.Close()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		signal.Stop(sigc)
		c.Close() // orderly Quit so the server frees the session at once
		os.Exit(0)
	}()
	fmt.Printf("stagedb — connected to %s. \\quit to exit.\n", addr)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("stagedb> ")
		} else {
			fmt.Print("    ...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if trimmed == "\\quit" || trimmed == "\\q" {
				return
			}
			fmt.Println("remote mode supports \\quit; other meta commands need an embedded shell")
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmt := buf.String()
			buf.Reset()
			runRemoteStatement(ctx, c, stmt)
		}
		prompt()
	}
}

func runRemoteStatement(ctx context.Context, c *client.Conn, stmt string) {
	stmt = strings.TrimSpace(stmt)
	if stmt == "" || stmt == ";" {
		return
	}
	start := time.Now()
	if isSelect(stmt) {
		rows, err := c.QueryContext(ctx, strings.TrimSuffix(stmt, ";"))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		defer rows.Close()
		var cells [][]string
		for rows.Next() {
			r := rows.Row()
			line := make([]string, len(r))
			for j, v := range r {
				line[j] = v.String()
			}
			cells = append(cells, line)
		}
		if err := rows.Err(); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Print(metrics.Table(rows.Columns(), cells))
		fmt.Printf("(%d rows, %v)\n", len(cells), time.Since(start))
		return
	}
	res, err := c.ExecContext(ctx, stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	elapsed := time.Since(start)
	if res.Columns != nil {
		printResult(res, elapsed)
		return
	}
	fmt.Printf("ok (%d rows affected, %v)\n", res.Affected, elapsed)
}

func meta(db *stagedb.DB, cmd string) bool {
	switch {
	case cmd == "\\quit" || cmd == "\\q":
		return false
	case cmd == "\\stages":
		// Front-end stages first, then the execution-engine stage pools
		// (fscan/iscan/filter/sort/join/aggr/exec).
		snaps := db.Stages()
		head := []string{"stage", "workers", "enqueued", "serviced", "queue", "max queue", "mean service"}
		var rows [][]string
		for _, s := range snaps {
			rows = append(rows, []string{
				s.Name,
				fmt.Sprintf("%d", s.Workers),
				fmt.Sprintf("%d", s.Enqueued),
				fmt.Sprintf("%d", s.Serviced),
				fmt.Sprintf("%d", s.QueueLen),
				fmt.Sprintf("%d", s.MaxQueue),
				s.MeanService.String(),
			})
		}
		fmt.Print(metrics.Table(head, rows))
		// Stage-specific counters (fscan's scan-share hit/attach/wrap
		// counts, the pagepool's hit/miss/outstanding) print below the
		// common table.
		for _, s := range snaps {
			if len(s.Counters) == 0 {
				continue
			}
			keys := make([]string, 0, len(s.Counters))
			for k := range s.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%d", k, s.Counters[k])
			}
			fmt.Printf("%s: %s\n", s.Name, strings.Join(parts, " "))
		}
	case cmd == "\\checkpoint":
		if err := db.Checkpoint(); err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Println("ok")
	case strings.HasPrefix(cmd, "\\explain "):
		out, err := db.Explain(strings.TrimSuffix(strings.TrimPrefix(cmd, "\\explain "), ";"))
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Print(out)
	default:
		fmt.Println("meta commands: \\stages \\checkpoint \\explain <select|update|delete> \\quit")
	}
	return true
}

func runStatement(conn *stagedb.Conn, stmt string) {
	stmt = strings.TrimSpace(stmt)
	if stmt == "" || stmt == ";" {
		return
	}
	start := time.Now()
	if isSelect(stmt) {
		runQuery(conn, stmt, start)
		return
	}
	res, err := conn.Exec(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	elapsed := time.Since(start)
	if res.Columns != nil {
		printResult(res, elapsed)
		return
	}
	fmt.Printf("ok (%d rows affected, %v)\n", res.Affected, elapsed)
}

// runQuery streams the SELECT through a Rows cursor — the shell holds one
// page at a time however large the result is.
func runQuery(conn *stagedb.Conn, stmt string, start time.Time) {
	rows, err := conn.QueryContext(context.Background(), strings.TrimSuffix(stmt, ";"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer rows.Close()
	var cells [][]string
	n := 0
	for rows.Next() {
		r := rows.Row()
		line := make([]string, len(r))
		for j, v := range r {
			line[j] = v.String()
		}
		cells = append(cells, line)
		n++
	}
	if err := rows.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(metrics.Table(rows.Columns(), cells))
	fmt.Printf("(%d rows, %v)\n", n, time.Since(start))
}

func printResult(res *stagedb.Result, elapsed time.Duration) {
	rows := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		rows[i] = cells
	}
	fmt.Print(metrics.Table(res.Columns, rows))
	fmt.Printf("(%d rows, %v)\n", len(res.Rows), elapsed)
}

func isSelect(stmt string) bool {
	return len(stmt) >= 6 && strings.EqualFold(strings.Fields(stmt)[0], "SELECT")
}

// envDirNote annotates the startup banner when the data dir came from the
// environment rather than the -data flag.
func envDirNote(flagDir string) string {
	if flagDir == "" {
		return os.Getenv("STAGEDB_DATADIR") + " (from STAGEDB_DATADIR)"
	}
	return ""
}
