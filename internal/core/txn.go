package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/obs"
	"sdp/internal/sqldb"
	"sdp/internal/wal"
)

// Txn is a distributed transaction managed by the cluster controller. Reads
// execute on one replica chosen by the read option; writes execute on all
// replicas; commit runs two-phase commit across the machines touched. A Txn
// must be used from a single goroutine, like a database connection.
type Txn struct {
	c     *Cluster
	db    string
	gid   uint64
	start time.Time // for the SLA monitor's commit-latency accounting

	sessions map[string]*replicaSession
	readHome string // Option 2's per-transaction read replica

	wrote    bool
	finished bool
	// rejected marks a transaction aborted by a proactive Algorithm 1
	// rejection, so the SLA monitor books it against the availability
	// bound instead of the inherent-abort tally.
	rejected bool

	// async tracks, in aggressive mode, writes whose remaining replicas
	// have not been confirmed yet. Before each subsequent operation the
	// already-resolved ones are checked; unresolved ones are left pending
	// and ultimately checked by the PREPARE votes.
	async []*future

	// trace is the distributed-tracing context this transaction's spans
	// (read routing, 2PC phases) parent under. The zero value disables
	// recording.
	trace obs.SpanContext
}

// SetTraceContext installs (or, with the zero value, clears) the trace
// context the transaction's core-layer spans parent under. The context is
// forwarded to every replica session — ordered behind any operations already
// enqueued there — so engine-side statement and WAL-flush spans join the
// same trace.
func (t *Txn) SetTraceContext(tc obs.SpanContext) {
	if t.trace == tc {
		return
	}
	t.trace = tc
	for _, s := range t.sessions {
		s.setTrace(tc)
	}
}

// recordSpan records one core-scope span under the transaction's context.
func (t *Txn) recordSpan(name, detail string, start time.Time) {
	t.c.metrics.reg.Spans().Record(obs.Span{
		TraceID:  t.trace.TraceID,
		SpanID:   obs.NewTraceID(),
		Parent:   t.trace.SpanID,
		Scope:    "core",
		Name:     name,
		DB:       t.db,
		Start:    start,
		Duration: time.Since(start),
		Detail:   detail,
	})
}

// GlobalID returns the controller-assigned global transaction ID.
func (t *Txn) GlobalID() uint64 { return t.gid }

// session returns (creating if needed) the replica session on machine id.
func (t *Txn) session(id string) (*replicaSession, error) {
	if s, ok := t.sessions[id]; ok {
		return s, nil
	}
	m, err := t.c.Machine(id)
	if err != nil {
		return nil, err
	}
	s, err := newReplicaSession(t.c, m, t.db, t.gid)
	if err != nil {
		return nil, err
	}
	if t.trace.Traced() {
		s.setTrace(t.trace)
	}
	t.sessions[id] = s
	return s, nil
}

// Exec parses and executes one statement, serving repeated statement text
// from the controller's shared statement cache. SELECT statements are routed
// to a single replica; all other statements execute on every replica of the
// database (read-one-write-all).
func (t *Txn) Exec(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	stmt, err := t.c.stmts.Parse(sql)
	if err != nil {
		return nil, err
	}
	return t.ExecStmt(stmt, params...)
}

// ExecStmt executes a pre-parsed statement.
func (t *Txn) ExecStmt(stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	if t.finished {
		return nil, ErrTxnDone
	}
	if err := t.checkAsync(); err != nil {
		t.abort()
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqldb.SelectStmt:
		return t.execRead(stmt, selectTables(s), params)
	case *sqldb.ExplainStmt:
		// EXPLAIN is a read: route it like the statement it describes.
		var tables []string
		if sel, ok := s.Inner.(*sqldb.SelectStmt); ok {
			tables = selectTables(sel)
		}
		return t.execRead(stmt, tables, params)
	case *sqldb.InsertStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.UpdateStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.DeleteStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.CreateTableStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.CreateIndexStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.DropTableStmt:
		return t.execWrite(stmt, s.Table, params)
	case *sqldb.BeginStmt:
		return &sqldb.Result{}, nil // transactions are explicit in this API
	case *sqldb.CommitStmt:
		return &sqldb.Result{}, t.Commit()
	case *sqldb.RollbackStmt:
		return &sqldb.Result{}, t.Rollback()
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

// checkAsync inspects resolved-but-unchecked asynchronous writes; a failure
// on any replica aborts the transaction, per the paper's aggressive
// controller ("subsequent operations of the transaction are aborted").
func (t *Txn) checkAsync() error {
	remaining := t.async[:0]
	var firstErr error
	for _, f := range t.async {
		if r, done := f.poll(); done {
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
		} else {
			remaining = append(remaining, f)
		}
	}
	t.async = remaining
	return firstErr
}

// execRead routes a read-only statement to one replica.
func (t *Txn) execRead(stmt sqldb.Statement, tables []string, params []sqldb.Value) (*sqldb.Result, error) {
	id, err := t.c.pickReadMachine(t, tables)
	if err != nil {
		t.abort()
		return nil, err
	}
	s, err := t.session(id)
	if err != nil {
		t.abort()
		return nil, err
	}
	traced := t.trace.Traced()
	var readStart time.Time
	if traced {
		readStart = time.Now()
	}
	r := s.read(stmt, params)
	if traced {
		t.recordSpan("read", "machine="+id, readStart)
	}
	if r.err != nil {
		t.abort()
		return nil, r.err
	}
	return r.res, nil
}

// execWrite routes a write to every replica, applying Algorithm 1 during
// replica creation, and acknowledges it per the controller's AckMode.
func (t *Txn) execWrite(stmt sqldb.Statement, table string, params []sqldb.Value) (*sqldb.Result, error) {
	targets, release, err := t.c.writeRoute(t.db, table)
	if err != nil {
		if IsRejection(err) {
			t.rejected = true
		}
		t.abort()
		return nil, err
	}
	t.wrote = true

	futs := make([]*future, 0, len(targets))
	for _, id := range targets {
		s, serr := t.session(id)
		if serr != nil {
			release()
			t.abort()
			return nil, serr
		}
		futs = append(futs, s.execStmt(stmt, params))
	}

	// The copy process may only proceed past this write once every replica
	// has executed it.
	go func(fs []*future) {
		for _, f := range fs {
			f.wait()
		}
		release()
	}(append([]*future{}, futs...))

	if t.c.opts.AckMode == Conservative {
		// Wait for all replicas; any failure aborts.
		var res *sqldb.Result
		var firstErr error
		for _, f := range futs {
			r := f.wait()
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			if res == nil && r.res != nil {
				res = r.res
			}
		}
		if firstErr != nil {
			t.abort()
			return nil, firstErr
		}
		return res, nil
	}

	// Aggressive: return on the first replica's answer; remember the rest.
	r := waitAny(futs)
	t.async = append(t.async, futs...)
	if r.err != nil {
		t.abort()
		return nil, r.err
	}
	return r.res, nil
}

// Commit finishes the transaction. Read-only transactions commit in one
// phase on each replica they touched; transactions with writes run 2PC: the
// PREPARE action is enqueued on every session (behind any still-pending
// writes on that machine, but concurrently across machines) and the
// transaction commits only if every participant votes yes.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrTxnDone
	}

	m := t.c.metrics
	if !t.wrote {
		var firstErr error
		for _, s := range t.sessions {
			r := s.commit()
			if r.err == nil {
				continue
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if netsim.IsTransient(r.err) {
				// The one-phase commit never reached a live machine: its
				// branch still holds read locks. Re-deliver the release in
				// the background (as a rollback — equivalent for a branch
				// with no writes) so the locks cannot leak.
				m.twopcTimeout.With("commit1p").Inc()
				t.c.resolveOutcome(s, t.gid, false)
			}
		}
		t.cleanup()
		if firstErr != nil {
			m.aborted.Inc()
			t.c.slamon.ObserveAbort(t.db)
			return firstErr
		}
		m.committed.Inc()
		m.readonlyCommit.Inc()
		t.c.slamon.ObserveCommit(t.db, time.Since(t.start))
		if rec := t.c.opts.Recorder; rec != nil {
			rec.Commit(t.gid)
		}
		return nil
	}

	// Mirror the commit to the backup controller before issuing prepares.
	rec := t.c.pair.begin(t)
	gid := gidString(t.gid)

	// Phase 1: prepare everywhere, concurrently.
	m.prepareTotal.Inc()
	if t.c.opts.AckMode == Aggressive && t.c.opts.ReadOption != ReadOption1 &&
		t.c.opts.EngineConfig.ReleaseReadLocksAtPrepare {
		// The exact combination the paper proves non-serializable (Table
		// 1): read locks dropped at PREPARE while reads are routed per
		// transaction or per operation under an aggressive controller.
		m.unsafePrepare.Inc()
	}
	m.reg.TraceEvent("2pc", gid, "prepare", fmt.Sprintf("%d participants", len(t.sessions)))
	prepStart := time.Now()
	votes := make(map[string]*future, len(t.sessions))
	for id, s := range t.sessions {
		votes[id] = s.prepare()
	}
	// Collect votes under the per-call deadline. A missing vote is a NO by
	// the presumed-abort rule: the coordinator logs nothing for aborts, so
	// deciding abort on a timeout is always safe — a participant that did
	// prepare will be rolled back by the abort phase (or, if it crashed, by
	// restart-time presumed abort).
	deadline := t.c.opts.CallTimeout
	var voteErr error
	timedOut := false
	for _, f := range votes {
		r, ok := f.waitTimeout(deadline)
		if !ok {
			timedOut = true
			m.twopcTimeout.With("prepare").Inc()
			if voteErr == nil {
				voteErr = ErrPrepareTimeout
			}
			continue
		}
		if r.err != nil && voteErr == nil {
			voteErr = r.err
		}
	}
	m.prepareSeconds.ObserveDuration(time.Since(prepStart))
	if t.trace.Traced() {
		t.recordSpan("2pc_prepare", fmt.Sprintf("%d participants", len(t.sessions)), prepStart)
	}
	if t.c.pair.crashed(StagePreparing, t.gid) {
		// Primary controller died before the commit decision; the backup's
		// TakeOver will roll this transaction back.
		t.finished = true
		t.c.pair.park(rec)
		return ErrMachineFailed
	}
	if voteErr != nil {
		// Phase 2 (abort): roll everyone back.
		m.voteNoTotal.Inc()
		if timedOut {
			m.presumedAbort.Inc()
			m.reg.TraceEvent("2pc", gid, "presumed_abort", voteErr.Error())
		}
		m.reg.TraceEvent("2pc", gid, "abort", voteErr.Error())
		t.c.pair.finish(rec)
		t.rollbackAll()
		t.cleanup()
		m.aborted.Inc()
		t.c.slamon.ObserveAbort(t.db)
		return fmt.Errorf("core: transaction aborted by 2PC: %w", voteErr)
	}

	// Commit decision reached: mirror it, then run phase 2.
	t.c.pair.advance(rec, StageCommitting)
	if t.c.pair.crashed(StageCommitting, t.gid) {
		// Primary died after the decision; TakeOver completes the commit.
		t.finished = true
		t.c.pair.park(rec)
		return ErrMachineFailed
	}

	// Phase 2 (commit).
	commitStart := time.Now()
	var commitSpanID uint64
	if t.trace.Traced() {
		// Re-point the replica branches at the commit span before the
		// decision goes out, so each engine's WAL-flush span parents under
		// the 2PC commit phase rather than the last statement.
		commitSpanID = obs.NewTraceID()
		ctc := obs.SpanContext{TraceID: t.trace.TraceID, SpanID: commitSpanID, Sampled: true}
		for _, s := range t.sessions {
			s.setTrace(ctc)
		}
	}
	commits := make(map[string]*future, len(t.sessions))
	for id, s := range t.sessions {
		commits[id] = s.commitPrepared()
	}
	for id, f := range commits {
		// A machine that dies between prepare and commit is repaired by
		// recovery (re-replication), not by blocking the commit. A live
		// machine whose commit delivery failed on network faults keeps a
		// prepared branch holding locks — hand it to a background resolver
		// that re-delivers the decision until it lands.
		r := f.wait()
		if r.err != nil && netsim.IsTransient(r.err) {
			m.twopcTimeout.With("commit").Inc()
			t.c.resolveOutcome(t.sessions[id], t.gid, true)
		}
	}
	m.commitSeconds.ObserveDuration(time.Since(commitStart))
	if t.trace.Traced() {
		t.c.metrics.reg.Spans().Record(obs.Span{
			TraceID:  t.trace.TraceID,
			SpanID:   commitSpanID,
			Parent:   t.trace.SpanID,
			Scope:    "core",
			Name:     "2pc_commit",
			DB:       t.db,
			Start:    commitStart,
			Duration: time.Since(commitStart),
		})
	}
	m.reg.TraceEvent("2pc", gid, "commit", "")
	t.c.pair.finish(rec)
	t.cleanup()
	m.committed.Inc()
	t.c.slamon.ObserveCommit(t.db, time.Since(t.start))
	if rec := t.c.opts.Recorder; rec != nil {
		rec.Commit(t.gid)
	}
	return nil
}

// Rollback aborts the transaction on every replica it touched.
func (t *Txn) Rollback() error {
	if t.finished {
		return ErrTxnDone
	}
	t.abort()
	return nil
}

// abort rolls back every session and finishes the transaction. The guard on
// finished makes the abort counter exact: no matter how many error paths
// converge here (failed read, failed write, rejected route, explicit
// Rollback after an error), a transaction is counted aborted at most once.
// The SLA monitor sees the same exactly-once outcome, booked as a rejection
// when a proactive Algorithm 1 rejection caused the abort.
func (t *Txn) abort() {
	if t.finished {
		return
	}
	t.rollbackAll()
	t.cleanup()
	t.c.metrics.aborted.Inc()
	if t.rejected {
		t.c.slamon.ObserveReject(t.db)
	} else {
		t.c.slamon.ObserveAbort(t.db)
	}
}

func (t *Txn) rollbackAll() {
	var wg sync.WaitGroup
	for _, s := range t.sessions {
		wg.Add(1)
		go func(s *replicaSession, f *future) {
			defer wg.Done()
			r := f.wait()
			if r.err != nil && netsim.IsTransient(r.err) {
				// The abort decision must still reach this participant or
				// its prepared/active branch would hold locks forever.
				t.c.resolveOutcome(s, t.gid, false)
			}
		}(s, s.rollback())
	}
	wg.Wait()
}

// cleanup closes all sessions and marks the transaction finished.
func (t *Txn) cleanup() {
	for _, s := range t.sessions {
		s.close()
	}
	t.finished = true
}

// IsRejection reports whether err is a proactive rejection (Algorithm 1).
func IsRejection(err error) bool { return errors.Is(err, ErrRejected) }

// IsRetryable reports whether the error is transient from the client's
// perspective: deadlock victim, lock timeout, rejection during copy, a
// machine failure mid-transaction, a branch abort surfacing through a 2PC
// vote (the aggressive controller learns of an asynchronous write failure
// only when the prepare vote comes back), a controller failover in progress
// (not-leader redirects and quorum loss heal once a leader re-emerges), or
// any simulated-network fault — dropped or delayed messages, lost replies,
// partitioned or timed-out calls all abort the transaction cleanly and
// invite a retry. A sealed log and a closed engine are the same story as a
// failed machine: the statement was in flight when the machine crashed and
// discovered it only at its next log append or engine call.
func IsRetryable(err error) bool {
	return errors.Is(err, sqldb.ErrDeadlock) ||
		errors.Is(err, sqldb.ErrLockTimeout) ||
		errors.Is(err, sqldb.ErrTxnAborted) ||
		errors.Is(err, ErrRejected) ||
		errors.Is(err, ErrMachineFailed) ||
		errors.Is(err, sqldb.ErrEngineClosed) ||
		errors.Is(err, wal.ErrSealed) ||
		errors.Is(err, ErrPrepareTimeout) ||
		errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrStaleRoute) ||
		errors.Is(err, ErrNotLeader) ||
		errors.Is(err, ErrNoQuorum) ||
		netsim.IsTransient(err)
}
