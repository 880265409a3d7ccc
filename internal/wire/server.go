package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/obs"
	"sdp/internal/sqldb"
)

// Backend is the platform surface the wire server drives. sdp.Platform
// adapts itself to this interface; tests implement it directly over a
// cluster controller.
type Backend interface {
	// Authenticate validates a handshake: may this token open sessions on
	// this database? A nil error admits the session.
	Authenticate(database, token string) error
	// Begin opens a transaction on the database. The server calls it once
	// per explicit BEGIN and once per autocommitted statement.
	Begin(database string) (Txn, error)
}

// Txn is one open backend transaction. ExecStmt receives both the SQL text
// (for layers that capture writes, e.g. DR replication) and the pre-parsed
// statement, so the engine's plan cache is hit without a re-parse.
type Txn interface {
	// ExecStmt executes one pre-parsed statement.
	ExecStmt(sql string, stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error)
	// Commit makes the transaction durable.
	Commit() error
	// Rollback aborts the transaction.
	Rollback() error
}

// TraceCarrier is optionally implemented by backend transactions that can
// propagate a distributed-tracing context into the platform (system.Txn
// does). Kept out of Txn so existing Backend implementations — including
// test doubles — keep compiling; a transaction that does not carry traces
// simply yields no platform-side spans.
type TraceCarrier interface {
	// SetTraceContext installs the trace context subsequent statement
	// execution and commit work run under (the zero context clears it).
	SetTraceContext(tc obs.SpanContext)
}

// ServerConfig tunes a wire server.
type ServerConfig struct {
	// Backend executes sessions' statements. Required.
	Backend Backend
	// Metrics receives the wire_* family; nil creates a private registry.
	Metrics *obs.Registry
	// Banner is the server identification sent in MsgWelcome.
	Banner string
	// DrainTimeout bounds graceful shutdown: how long Close waits for
	// connections to answer the requests they have read before
	// force-closing them (default 5s).
	DrainTimeout time.Duration
	// StmtCacheSize caps the server's shared text→AST statement cache
	// (default 512; see sqldb.NewStmtCache).
	StmtCacheSize int
	// TraceSample is the server-initiated head-sampling fraction, applied
	// per tenant database to requests that arrive without a client trace
	// context (a client-sampled request is always traced end to end).
	TraceSample float64
	// SlowQuery, when positive, captures statements whose server-side
	// execution exceeds it into the registry's slow-query log.
	SlowQuery time.Duration
}

// Server is a TCP wire-protocol server in front of a Backend. Start one
// with Serve, stop it with Close.
type Server struct {
	cfg     ServerConfig
	metrics *serverMetrics
	stmts   *sqldb.StmtCache
	lis     net.Listener
	sampler *obs.Sampler  // server-initiated head sampling, nil-safe
	spans   *obs.SpanRing // platform span ring ("wire"-scope spans)
	slow    *obs.SlowLog
	qstats  *obs.QueryStats

	mu       sync.Mutex
	conns    map[*session]struct{}
	draining bool

	wg sync.WaitGroup
}

// Serve binds addr (e.g. "127.0.0.1:8346", or ":0" for an ephemeral port)
// and serves the wire protocol on it in the background until Close.
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("wire: ServerConfig.Backend is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.Banner == "" {
		cfg.Banner = "sdp"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		metrics: newServerMetrics(cfg.Metrics),
		stmts:   sqldb.NewStmtCache(cfg.StmtCacheSize),
		lis:     lis,
		spans:   cfg.Metrics.Spans(),
		slow:    cfg.Metrics.SlowLog(),
		qstats:  cfg.Metrics.QueryStats(),
		conns:   make(map[*session]struct{}),
	}
	if cfg.TraceSample > 0 {
		s.sampler = obs.NewSampler(cfg.TraceSample)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the address the server is listening on.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Metrics returns the registry the server's wire_* family reports into.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			_ = c.Close()
			continue
		}
		sess := newSession(s, c)
		s.conns[sess] = struct{}{}
		s.mu.Unlock()
		s.metrics.connsTotal.Inc()
		s.metrics.connsActive.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.serve()
			s.mu.Lock()
			delete(s.conns, sess)
			s.mu.Unlock()
			s.metrics.connsActive.Dec()
		}()
	}
}

// Close gracefully drains the server: it stops accepting, lets every
// connection answer the requests it has already read, sends each client a
// MsgBye, and force-closes whatever remains after DrainTimeout.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	conns := make([]*session, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.lis.Close()
	for _, c := range conns {
		c.startDrain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.forceClose()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// preparedStmt is one session-registered statement.
type preparedStmt struct {
	sql  string
	stmt sqldb.Statement
}

// session serves one client connection on one goroutine: it reads a frame,
// executes it, and writes the response tagged with the request's sequence
// ID. Responses are flushed only when the read buffer runs empty, so a
// pipelined burst is answered in batched writes. While
// a request executes nothing reads the socket, so a client that pipelines
// faster than the server executes fills its own TCP window: that is the
// backpressure.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	closeOnce sync.Once

	db     string
	authed bool
	txn    Txn
	stmts  map[uint32]preparedStmt
	nextID uint32

	draining atomic.Bool // set by startDrain; serve says goodbye when idle
}

func newSession(s *Server, c net.Conn) *session {
	return &session{
		srv:   s,
		conn:  c,
		br:    bufio.NewReaderSize(c, 4096),
		bw:    bufio.NewWriterSize(c, 4096),
		stmts: make(map[uint32]preparedStmt),
	}
}

// startDrain asks the session to answer what it has read and say goodbye:
// an immediate read deadline makes its next read from the socket fail, so
// it stops once the frames already in its read buffer are handled.
func (c *session) startDrain() {
	c.draining.Store(true)
	_ = c.conn.SetReadDeadline(time.Now())
}

// forceClose tears the connection down, unblocking the session.
func (c *session) forceClose() {
	c.closeOnce.Do(func() { _ = c.conn.Close() })
}

func (c *session) serve() {
	defer c.forceClose()
	defer func() {
		if c.txn != nil {
			_ = c.txn.Rollback()
			c.txn = nil
		}
		c.srv.metrics.stmtsActive.Add(-float64(len(c.stmts)))
	}()

	for {
		f, n, err := readFrame(c.br)
		if err != nil {
			if errors.Is(err, errProtocol) {
				// A malformed frame is unrecoverable: framing sync is lost.
				// Report once (seq 0: the request's seq is unknowable) and
				// hang up.
				c.sendError(0, ErrCodeProtocol, err.Error())
			}
			break
		}
		c.srv.metrics.bytesRead.Add(uint64(n))
		if !c.handle(f) {
			break
		}
		if c.br.Buffered() == 0 {
			c.flush()
			if c.draining.Load() && c.txn == nil {
				break
			}
		}
	}
	if c.srv.isDraining() || c.draining.Load() {
		c.send(MsgBye, 0, nil)
		c.srv.metrics.drainedConns.Inc()
	}
	c.flush()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handle executes one frame; a false return closes the session.
func (c *session) handle(f frame) bool {
	c.srv.metrics.msgs.With(msgName(f.typ)).Inc()
	switch f.typ {
	case MsgHello:
		return c.handleHello(f)
	case MsgPing:
		c.send(MsgPong, f.seq, nil)
		return true
	case MsgQuit:
		c.send(MsgBye, f.seq, nil)
		return false
	}
	if !c.authed {
		c.sendError(f.seq, ErrCodeProtocol, "handshake required before any other message")
		return false
	}
	switch f.typ {
	case MsgQuery:
		return c.handleQuery(f)
	case MsgPrepare:
		return c.handlePrepare(f)
	case MsgExec:
		return c.handleExec(f)
	case MsgBegin:
		return c.handleBegin(f)
	case MsgCommit:
		return c.handleCommit(f)
	case MsgRollback:
		return c.handleRollback(f)
	case MsgCloseStmt:
		return c.handleCloseStmt(f)
	default:
		c.sendError(f.seq, ErrCodeProtocol, fmt.Sprintf("unknown message type 0x%02x", f.typ))
		return false
	}
}

func (c *session) handleHello(f frame) bool {
	r := &reader{buf: f.payload}
	ver := r.u8()
	db := r.str()
	token := r.str()
	if err := r.done(); err != nil {
		c.sendError(f.seq, ErrCodeProtocol, err.Error())
		return false
	}
	if c.authed {
		c.sendError(f.seq, ErrCodeProtocol, "duplicate handshake")
		return false
	}
	if ver != ProtoVersion {
		c.sendError(f.seq, ErrCodeProtocol, fmt.Sprintf("protocol version %d not supported (server speaks %d)", ver, ProtoVersion))
		return false
	}
	if db == "" {
		c.sendError(f.seq, ErrCodeProtocol, "handshake names no database")
		return false
	}
	if err := c.srv.cfg.Backend.Authenticate(db, token); err != nil {
		c.sendError(f.seq, ErrCodeAuth, err.Error())
		return false
	}
	c.db = db
	c.authed = true
	c.send(MsgWelcome, f.seq, appendString([]byte{ProtoVersion}, c.srv.cfg.Banner))
	return true
}

func (c *session) handleQuery(f frame) bool {
	r := &reader{buf: f.payload}
	sql := r.str()
	params := r.params()
	tc := r.traceContext()
	if err := r.done(); err != nil {
		c.sendError(f.seq, ErrCodeProtocol, err.Error())
		return false
	}
	stmt, err := c.srv.stmts.Parse(sql)
	if err != nil {
		c.sendErr(f.seq, err)
		return true
	}
	c.runStmt(f.seq, "query", sql, stmt, params, tc)
	return true
}

func (c *session) handlePrepare(f frame) bool {
	r := &reader{buf: f.payload}
	sql := r.str()
	if err := r.done(); err != nil {
		c.sendError(f.seq, ErrCodeProtocol, err.Error())
		return false
	}
	stmt, err := c.srv.stmts.Parse(sql)
	if err != nil {
		c.sendErr(f.seq, err)
		return true
	}
	c.nextID++
	id := c.nextID
	c.stmts[id] = preparedStmt{sql: sql, stmt: stmt}
	c.srv.metrics.prepared.Inc()
	c.srv.metrics.stmtsActive.Inc()
	c.send(MsgStmt, f.seq, appendU32(nil, id))
	return true
}

func (c *session) handleExec(f frame) bool {
	r := &reader{buf: f.payload}
	id := r.u32()
	params := r.params()
	tc := r.traceContext()
	if err := r.done(); err != nil {
		c.sendError(f.seq, ErrCodeProtocol, err.Error())
		return false
	}
	ps, ok := c.stmts[id]
	if !ok {
		c.sendError(f.seq, ErrCodeStmt, fmt.Sprintf("unknown prepared statement %d", id))
		return true
	}
	c.runStmt(f.seq, "exec", ps.sql, ps.stmt, params, tc)
	return true
}

// traceStart resolves the trace context one statement execution runs
// under. A client-sampled request continues the client's trace (the server
// span becomes a child of the client span carried in the frame); an
// unsampled request may still start a server-initiated trace via the
// per-tenant sampler. The returned context names the server span; parent is
// what that span links under (0 for a server-initiated root).
func (s *Server) traceStart(db string, inbound obs.SpanContext) (sctx obs.SpanContext, parent uint64) {
	if inbound.Traced() {
		return obs.SpanContext{TraceID: inbound.TraceID, SpanID: obs.NewTraceID(), Sampled: true}, inbound.SpanID
	}
	if s.sampler.Sample(db) {
		return obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewTraceID(), Sampled: true}, 0
	}
	return obs.SpanContext{}, 0
}

// setTxnTrace propagates the trace context into a backend transaction that
// can carry one; called per statement so an explicit transaction follows
// each statement's sampling decision (and its commit work is attributed to
// the last traced statement).
func setTxnTrace(txn Txn, sctx obs.SpanContext) {
	if carrier, ok := txn.(TraceCarrier); ok {
		carrier.SetTraceContext(sctx)
	}
}

// modeFromSpans extracts the plan execution mode recorded by the engine's
// "sql" span, "" when the breakdown carries none.
func modeFromSpans(spans []obs.Span) string {
	for i := range spans {
		if spans[i].Scope == "sql" && strings.HasPrefix(spans[i].Detail, "exec=") {
			return strings.TrimPrefix(spans[i].Detail, "exec=")
		}
	}
	return ""
}

// runStmt executes one statement in the open transaction, or in a
// single-statement autocommit transaction when none is open.
func (c *session) runStmt(seq uint64, kind, sql string, stmt sqldb.Statement, params []sqldb.Value, inbound obs.SpanContext) {
	start := time.Now()
	sctx, parent := c.srv.traceStart(c.db, inbound)
	var res *sqldb.Result
	var err error
	if c.txn != nil {
		setTxnTrace(c.txn, sctx)
		res, err = c.txn.ExecStmt(sql, stmt, params...)
		if err != nil {
			// The controller aborts the distributed transaction on any
			// statement error; reflect that in session state so a
			// subsequent COMMIT reports the txn gone rather than hanging.
			c.txn = nil
		}
	} else {
		var txn Txn
		txn, err = c.srv.cfg.Backend.Begin(c.db)
		if err != nil {
			c.sendErr(seq, err)
			return
		}
		setTxnTrace(txn, sctx)
		res, err = txn.ExecStmt(sql, stmt, params...)
		if err != nil {
			_ = txn.Rollback()
		} else {
			err = txn.Commit()
		}
	}
	c.finishStmt(seq, kind, sql, start, sctx, parent, res, err)
}

// finishStmt records one executed statement's telemetry — latency (with a
// trace exemplar when sampled), the "wire"-scope span, per-tenant query
// stats, and a slow-query capture over the threshold — then answers the
// client.
func (c *session) finishStmt(seq uint64, kind, sql string, start time.Time, sctx obs.SpanContext, parent uint64, res *sqldb.Result, err error) {
	dur := time.Since(start)
	c.srv.metrics.observeExec(start, sctx.TraceID)
	if sctx.Traced() {
		c.srv.spans.Record(obs.Span{
			TraceID:  sctx.TraceID,
			SpanID:   sctx.SpanID,
			Parent:   parent,
			Scope:    "wire",
			Name:     kind,
			DB:       c.db,
			Start:    start,
			Duration: dur,
			Detail:   sql,
		})
	}
	c.srv.qstats.Record(c.db, sql, dur)
	if c.srv.cfg.SlowQuery > 0 && dur >= c.srv.cfg.SlowQuery {
		spans := c.srv.spans.ByTrace(sctx.TraceID)
		c.srv.slow.Record(obs.SlowEntry{
			Time:     time.Now(),
			DB:       c.db,
			SQL:      sql,
			Duration: dur,
			TraceID:  sctx.TraceID,
			Mode:     modeFromSpans(spans),
			Spans:    spans,
		})
	}
	if err != nil {
		c.sendErr(seq, err)
		return
	}
	c.sendResult(seq, res)
}

func (c *session) handleBegin(f frame) bool {
	if c.txn != nil {
		c.sendError(f.seq, ErrCodeTxnState, "transaction already open")
		return true
	}
	txn, err := c.srv.cfg.Backend.Begin(c.db)
	if err != nil {
		c.sendErr(f.seq, err)
		return true
	}
	c.txn = txn
	c.sendResult(f.seq, nil)
	return true
}

func (c *session) handleCommit(f frame) bool {
	if c.txn == nil {
		c.sendError(f.seq, ErrCodeTxnState, "no open transaction")
		return true
	}
	err := c.txn.Commit()
	c.txn = nil
	if err != nil {
		c.sendErr(f.seq, err)
		return true
	}
	c.sendResult(f.seq, nil)
	return true
}

func (c *session) handleRollback(f frame) bool {
	if c.txn == nil {
		c.sendError(f.seq, ErrCodeTxnState, "no open transaction")
		return true
	}
	err := c.txn.Rollback()
	c.txn = nil
	if err != nil {
		c.sendErr(f.seq, err)
		return true
	}
	c.sendResult(f.seq, nil)
	return true
}

func (c *session) handleCloseStmt(f frame) bool {
	r := &reader{buf: f.payload}
	id := r.u32()
	if err := r.done(); err != nil {
		c.sendError(f.seq, ErrCodeProtocol, err.Error())
		return false
	}
	if _, ok := c.stmts[id]; ok {
		delete(c.stmts, id)
		c.srv.metrics.stmtsActive.Dec()
	}
	c.sendResult(f.seq, nil)
	return true
}

// sendResult encodes and sends a MsgResult.
func (c *session) sendResult(seq uint64, res *sqldb.Result) {
	payload, err := encodeResult(nil, res)
	if err != nil {
		c.sendError(seq, ErrCodeProtocol, err.Error())
		return
	}
	c.send(MsgResult, seq, payload)
}

// sendErr classifies a backend error and sends the MsgError.
func (c *session) sendErr(seq uint64, err error) {
	c.sendError(seq, codeFor(err), err.Error())
}

func (c *session) sendError(seq uint64, code uint16, msg string) {
	c.srv.metrics.errs.With(codeName(code)).Inc()
	c.send(MsgError, seq, encodeError(nil, code, msg))
}

func (c *session) send(typ byte, seq uint64, payload []byte) {
	n, err := writeFrame(c.bw, typ, seq, payload)
	if err != nil {
		c.forceClose()
		return
	}
	c.srv.metrics.bytesWritten.Add(uint64(n))
}

func (c *session) flush() {
	_ = c.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := c.bw.Flush(); err != nil && err != io.ErrShortWrite {
		c.forceClose()
	}
	_ = c.conn.SetWriteDeadline(time.Time{})
}
