package server

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"stagedb"
	"stagedb/internal/wire"
)

// session is one client connection: a reader goroutine that owns all reads
// (frame dispatch, cancel delivery, disconnect detection) and a worker
// goroutine that owns all writes and runs queries one at a time. The split
// keeps Cancel frames and disconnects observable while a query streams.
type session struct {
	srv      *Server
	conn     net.Conn
	ctx      context.Context
	cancel   context.CancelFunc
	tenant   string
	admitted bool // holds a connection-quota slot that teardown must return
	dbc      *stagedb.Conn

	busy    atomic.Bool
	cancelQ atomic.Value // context.CancelFunc of the in-flight query
	wbuf    []byte       // frame payload scratch, reused across pages
}

// run is the session worker: handshake, then the query loop. It owns every
// write on the connection.
func (s *session) run() {
	defer func() {
		// An abandoned transaction must not keep its table locks past the
		// connection: roll it back before the session disappears. Abort
		// bypasses the stage queues — the execute stage may be wedged on
		// exactly the locks this rollback releases.
		if s.dbc != nil {
			s.dbc.Abort()
		}
		s.cancel()
		s.conn.Close()
		if s.admitted {
			s.srv.adm.releaseConn(s.tenant)
		}
		s.srv.removeSession(s)
		s.srv.wg.Done()
	}()

	if !s.handshake() {
		return
	}
	s.dbc = s.srv.db.Conn()

	frames := make(chan wire.Query, 1)
	s.srv.wg.Add(1)
	go s.reader(frames)

	for {
		select {
		case <-s.ctx.Done():
			return
		case q, ok := <-frames:
			if !ok {
				return
			}
			s.busy.Store(true)
			s.runQuery(q)
			s.busy.Store(false)
			if s.srv.draining() {
				// The in-flight query this session was granted under drain
				// has finished; the session ends with it.
				return
			}
		}
	}
}

// handshake reads Hello under the handshake deadline, checks the protocol
// version and the tenant's connection quota, and answers HelloOK (or a
// refusing Done). It reports whether the session may proceed.
func (s *session) handshake() bool {
	s.conn.SetDeadline(time.Now().Add(s.srv.opts.HandshakeTimeout))
	typ, payload, err := wire.ReadFrame(s.conn)
	if err != nil || typ != wire.MsgHello {
		return false
	}
	h, err := wire.ParseHello(payload)
	if err != nil {
		return false
	}
	if h.Proto != wire.Proto {
		s.writeDoneErr(wire.ErrCodeProto, "unsupported protocol version")
		return false
	}
	if s.srv.draining() {
		s.writeDoneErr(wire.ErrCodeDraining, stagedb.ErrDraining.Error())
		return false
	}
	if err := s.srv.adm.admitConn(h.Tenant); err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return false
	}
	s.tenant, s.admitted = h.Tenant, true
	s.conn.SetDeadline(time.Time{}) // steady state: reads park, writes set their own deadline
	return s.writeFrame(wire.MsgHelloOK, wire.AppendHelloOK(nil, wire.Proto)) == nil
}

// reader owns all reads after the handshake. Query frames flow to the
// worker; Cancel fails the in-flight query in place; Quit (or any read
// error — the disconnect path) ends the session.
func (s *session) reader(frames chan<- wire.Query) {
	defer s.srv.wg.Done()
	defer close(frames)
	for {
		typ, payload, err := wire.ReadFrame(s.conn)
		if err != nil {
			// Disconnect (or hard-stop poke): fail whatever is in flight so
			// the pipeline stops producing pages nobody will read.
			select {
			case <-s.ctx.Done():
			default:
				s.srv.adm.counters.Inc("disconnects")
			}
			s.cancelInflight()
			s.cancel()
			return
		}
		switch typ {
		case wire.MsgQuery:
			q, err := wire.ParseQuery(payload)
			if err != nil {
				s.cancelInflight()
				s.cancel()
				return
			}
			select {
			case frames <- q:
			case <-s.ctx.Done():
				return
			}
		case wire.MsgCancel:
			s.cancelQuery()
		case wire.MsgQuit:
			return
		default:
			// Unknown frame: protocol violation, drop the session.
			s.cancelInflight()
			s.cancel()
			return
		}
	}
}

// cancelQuery answers a Cancel frame: it fails the running query (if any)
// through its context only. The worker sees the cancellation at its next
// page and answers Done(canceled); a frame it is writing meanwhile
// completes, because a canceling client drains to Done. Interrupting that
// write instead could tear the frame or lose the Done, and leave the
// client waiting forever.
func (s *session) cancelQuery() {
	if cf, ok := s.cancelQ.Load().(context.CancelFunc); ok && cf != nil {
		cf()
	}
}

// cancelInflight is cancelQuery for a session that is ending (disconnect,
// protocol violation): it also pokes the write deadline so a worker parked
// in conn.Write on a full socket unblocks at once.
func (s *session) cancelInflight() {
	if cf, ok := s.cancelQ.Load().(context.CancelFunc); ok && cf != nil {
		cf()
		s.conn.SetWriteDeadline(time.Now())
	}
}

// runQuery carries one query from admission to its terminal Done frame.
// A panic anywhere in the query path is confined to this query: the
// deferred recover answers with ErrCodePanic and the session lives on.
func (s *session) runQuery(q wire.Query) {
	defer func() {
		s.cancelQ.Store(context.CancelFunc(nil))
		if r := recover(); r != nil {
			s.srv.adm.counters.Inc("panics")
			s.writeDoneErr(wire.ErrCodePanic, "stagedb: query panicked (session preserved)")
		}
	}()

	_, execQueue := s.srv.db.EngineLoad()
	if err := s.srv.adm.admitQuery(s.tenant, s.srv.draining(), execQueue); err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return
	}
	defer s.srv.adm.releaseQuery(s.tenant)

	qctx, qcancel := s.queryContext(q)
	defer qcancel()
	s.cancelQ.Store(qcancel)

	if hook := s.srv.testHookExec; hook != nil {
		hook(q.SQL)
	}

	args := make([]any, len(q.Args))
	for i, v := range q.Args {
		args[i] = v
	}

	if q.Flags&wire.FlagQueryOnly != 0 {
		s.streamQuery(qctx, q.SQL, args)
		return
	}
	res, err := s.dbc.ExecContext(qctx, q.SQL, args...)
	if err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return
	}
	// A SELECT through Exec arrives materialized; re-page it at the
	// engine's page granularity so the wire sees the same frame shape.
	if len(res.Columns) > 0 {
		if err := s.writeFrame(wire.MsgColumns, wire.AppendColumns(s.wbuf[:0], res.Columns)); err != nil {
			s.failWrite(qctx)
			return
		}
		const pageRows = 64
		for off := 0; off < len(res.Rows); off += pageRows {
			end := min(off+pageRows, len(res.Rows))
			if err := s.writeFrame(wire.MsgPage, wire.AppendPage(s.wbuf[:0], res.Rows[off:end])); err != nil {
				s.failWrite(qctx)
				return
			}
		}
	}
	s.writeDone(wire.Done{Affected: res.Affected})
}

// streamQuery is the SELECT fast path: one wire frame per pooled exchange
// page, pulled from the pipeline only as fast as the client accepts frames.
// The bounded root exchange turns a stalled write into parked execute-stage
// producers — backpressure, not buffering.
func (s *session) streamQuery(qctx context.Context, sqlText string, args []any) {
	rows, err := s.dbc.QueryContext(qctx, sqlText, args...)
	if err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return
	}
	if err := s.writeFrame(wire.MsgColumns, wire.AppendColumns(s.wbuf[:0], rows.Columns())); err != nil {
		rows.Close()
		s.failWrite(qctx)
		return
	}
	for {
		batch, err := rows.NextBatch()
		if err != nil {
			rows.Close()
			s.writeDoneErr(codeFor(err), err.Error())
			return
		}
		if batch == nil {
			break
		}
		if err := s.writeFrame(wire.MsgPage, wire.AppendPage(s.wbuf[:0], batch)); err != nil {
			// Slow or gone client: abandon the pipeline (recycles every
			// outstanding page, like an early Rows.Close) and the session.
			rows.Close()
			s.failWrite(qctx)
			return
		}
	}
	if err := rows.Close(); err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return
	}
	s.writeDone(wire.Done{})
}

// queryContext derives the query's context from the session's: the client
// deadline (DeadlineMs) and the server's QueryTimeout cap both apply; the
// shorter wins.
func (s *session) queryContext(q wire.Query) (context.Context, context.CancelFunc) {
	timeout := time.Duration(0)
	if q.DeadlineMs > 0 {
		timeout = time.Duration(q.DeadlineMs) * time.Millisecond
	}
	if qt := s.srv.opts.QueryTimeout; qt > 0 && (timeout == 0 || qt < timeout) {
		timeout = qt
	}
	if timeout > 0 {
		return context.WithTimeout(s.ctx, timeout)
	}
	return context.WithCancel(s.ctx)
}

// failWrite ends the session after a result-frame write failed: the write
// may have sent part of a frame, so nothing more can be written on the
// connection, and closing it lets the client see EOF instead of waiting for
// a Done that cannot arrive. With the query still live, the cause is a
// client slow past WriteTimeout (or gone); otherwise the session was
// already ending.
func (s *session) failWrite(qctx context.Context) {
	if qctx.Err() == nil {
		s.srv.adm.counters.Inc("slow_client_aborts")
	}
	s.cancel()
}

// writeFrame writes one frame under a fresh WriteTimeout deadline. An
// in-flight write is interruptible: cancelInflight (a session ending) pokes
// the deadline into the past, so a parked write returns a timeout error
// immediately.
func (s *session) writeFrame(typ byte, payload []byte) error {
	s.wbuf = payload // keep the grown scratch buffer for the next frame
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.opts.WriteTimeout))
	if hook := s.srv.testHookWrite; hook != nil {
		hook(s, typ)
	}
	return wire.WriteFrame(s.conn, typ, payload)
}

// writeDone writes a query's terminal frame. If it cannot be written the
// session ends, so the client sees EOF rather than wait for it forever.
func (s *session) writeDone(d wire.Done) {
	if err := s.writeFrame(wire.MsgDone, d.Append(s.wbuf[:0])); err != nil {
		s.cancel()
	}
}

func (s *session) writeDoneErr(code wire.ErrCode, msg string) {
	s.writeDone(wire.Done{Code: code, Msg: msg})
}

// codeFor maps the public error taxonomy onto wire codes; anything outside
// the taxonomy (syntax, schema, execution errors) is generic.
func codeFor(err error) wire.ErrCode {
	switch {
	case errors.Is(err, stagedb.ErrTimeout):
		return wire.ErrCodeTimeout
	case errors.Is(err, stagedb.ErrCanceled):
		return wire.ErrCodeCanceled
	case errors.Is(err, stagedb.ErrAdmissionDenied):
		return wire.ErrCodeAdmission
	case errors.Is(err, stagedb.ErrDraining):
		return wire.ErrCodeDraining
	case errors.Is(err, stagedb.ErrSerializationFailure):
		return wire.ErrCodeSerialization
	case errors.Is(err, context.DeadlineExceeded):
		return wire.ErrCodeTimeout
	case errors.Is(err, context.Canceled):
		return wire.ErrCodeCanceled
	}
	return wire.ErrCodeGeneric
}
