package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/vclock"
)

// oltp sizes: 20k accounts with an 80-byte pad, about 2.4 MB of heap, well
// inside the default 1024-frame (8 MB) buffer pool.
const (
	oltpRows    = 20000
	oltpPadLen  = 80
	oltpStripes = 2 // one key stripe per client connection
)

// acctPad is the deterministic pad column of account id.
func acctPad(id int64) string {
	b := make([]byte, oltpPadLen)
	for i := range b {
		b[i] = byte('a' + (id+int64(i))%26)
	}
	return string(b)
}

// stripe is the model of the accounts one connection owns (id % 2 == its
// index). Only that connection writes them, so every answer it reads back
// is exactly predictable.
type stripe struct {
	rng    *vclock.RNG
	bal    map[int64]int64
	ids    []int64 // every id the stripe owns, in creation order
	nextID int64   // next id an INSERT creates
}

// newOLTP builds the oltp workload: the accounts table, and one
// closed-loop stream per stripe running 75% point SELECT, 20% point
// UPDATE and 5% INSERT of new ids, all on uniformly chosen keys.
func newOLTP(seed uint64) *workload {
	rng := vclock.NewRNG(seed)
	stripes := make([]*stripe, oltpStripes)
	for i := range stripes {
		stripes[i] = &stripe{
			rng:    vclock.NewRNG(subSeed(seed, i+1)),
			bal:    make(map[int64]int64),
			nextID: oltpRows + int64(i),
		}
	}
	w := &workload{
		name:   "oltp",
		tables: []string{"acct"},
		rows:   oltpRows,
		load:   []string{"CREATE TABLE acct (id INT PRIMARY KEY, bal INT, pad TEXT)"},

		warmup:        time.Second,
		classes:       []string{"select", "update", "insert"},
		readClasses:   []string{"select"},
		firstRowClass: "select",
		p99:           true,
	}
	const batch = 500
	var sb strings.Builder
	for lo := int64(0); lo < oltpRows; lo += batch {
		sb.Reset()
		sb.WriteString("INSERT INTO acct VALUES ")
		for id := lo; id < lo+batch && id < oltpRows; id++ {
			bal := int64(rng.Intn(1000))
			s := stripes[id%oltpStripes]
			s.bal[id] = bal
			s.ids = append(s.ids, id)
			if id > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, '%s')", id, bal, acctPad(id))
		}
		w.load = append(w.load, sb.String())
	}
	for _, s := range stripes {
		w.streams = append(w.streams, &stream{next: s.next, reads: true})
	}
	w.final = func(ctx context.Context, c *client.Conn) error { return checkAccounts(ctx, c, stripes, false) }
	w.restart = func(ctx context.Context, c *client.Conn) error { return checkAccounts(ctx, c, stripes, true) }
	return w
}

// next draws the stripe's next operation and the check its answer must pass.
func (s *stripe) next() op {
	p := s.rng.Intn(100)
	switch {
	case p < 75:
		id := s.ids[s.rng.Intn(len(s.ids))]
		return op{class: "select", query: true, sql: "SELECT bal FROM acct WHERE id = ?", args: []any{id},
			check: func(rows []stagedb.Row, _ int64) error {
				if len(rows) != 1 || rows[0][0].Int() != s.bal[id] {
					return fmt.Errorf("select id %d: got %v, model has bal %d", id, rows, s.bal[id])
				}
				return nil
			}}
	case p < 95:
		id := s.ids[s.rng.Intn(len(s.ids))]
		return op{class: "update", sql: "UPDATE acct SET bal = bal + 1 WHERE id = ?", args: []any{id},
			check: func(_ []stagedb.Row, affected int64) error {
				if affected != 1 {
					return fmt.Errorf("update id %d: %d rows affected, want 1", id, affected)
				}
				s.bal[id]++
				return nil
			}}
	default:
		// The new id joins the key space now, so the stream does not depend
		// on outcomes; the model takes its balance only once acknowledged.
		id := s.nextID
		s.nextID += oltpStripes
		s.ids = append(s.ids, id)
		bal := int64(s.rng.Intn(1000))
		return op{class: "insert", sql: "INSERT INTO acct VALUES (?, ?, ?)", args: []any{id, bal, acctPad(id)},
			check: func(_ []stagedb.Row, affected int64) error {
				if affected != 1 {
					return fmt.Errorf("insert id %d: %d rows affected, want 1", id, affected)
				}
				s.bal[id] = bal
				return nil
			}}
	}
}

// checkAccounts compares the table with the stripes' models: the totals,
// and with full set every row, so that no acknowledged write is missing
// and nothing unacknowledged is present.
func checkAccounts(ctx context.Context, c *client.Conn, stripes []*stripe, full bool) error {
	var count, sum int64
	for _, s := range stripes {
		count += int64(len(s.bal))
		for _, b := range s.bal {
			sum += b
		}
	}
	rows, err := queryAll(ctx, c, "SELECT COUNT(*), SUM(bal) FROM acct")
	if err != nil {
		return err
	}
	if len(rows) != 1 || rows[0][0].Int() != count || rows[0][1].Int() != sum {
		return fmt.Errorf("acct totals: got %v, model has count %d sum %d", rows, count, sum)
	}
	if !full {
		return nil
	}
	rows, err = queryAll(ctx, c, "SELECT id, bal FROM acct")
	if err != nil {
		return err
	}
	if int64(len(rows)) != count {
		return fmt.Errorf("acct: %d rows, model has %d", len(rows), count)
	}
	for _, r := range rows {
		id, bal := r[0].Int(), r[1].Int()
		want, ok := stripes[id%oltpStripes].bal[id]
		if !ok || want != bal {
			return fmt.Errorf("acct id %d: bal %d, model has %d (present %v)", id, bal, want, ok)
		}
	}
	return nil
}
