package core

import (
	"errors"
	"fmt"
	"time"

	"sdp/internal/netsim"
	"sdp/internal/obs"
	"sdp/internal/sqldb"
)

// opResult is the outcome of one operation executed on a replica.
type opResult struct {
	res *sqldb.Result
	err error
}

// future resolves to the result of an asynchronously executed operation.
// It is safe for any number of goroutines to wait on it.
type future struct {
	done chan struct{}
	res  opResult
}

func newFuture() *future { return &future{done: make(chan struct{})} }

// complete resolves the future. It must be called exactly once.
func (f *future) complete(r opResult) {
	f.res = r
	close(f.done)
}

// wait blocks until the operation finishes and returns its outcome. It may
// be called repeatedly and concurrently.
func (f *future) wait() opResult {
	<-f.done
	return f.res
}

// poll returns the outcome if the operation has finished.
func (f *future) poll() (opResult, bool) {
	select {
	case <-f.done:
		return f.res, true
	default:
		return opResult{}, false
	}
}

// waitTimeout blocks until the operation finishes or d elapses, reporting
// whether an outcome arrived in time. A non-positive d waits forever — the
// no-network configuration, where an in-process call cannot stall.
func (f *future) waitTimeout(d time.Duration) (opResult, bool) {
	if d <= 0 {
		return f.wait(), true
	}
	select {
	case <-f.done:
		return f.res, true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.done:
		return f.res, true
	case <-t.C:
		return opResult{}, false
	}
}

// waitAny blocks until one of the futures resolves and returns its outcome —
// the aggressive controller's "return as soon as one machine answers".
func waitAny(futs []*future) opResult {
	if len(futs) == 1 {
		return futs[0].wait()
	}
	ch := make(chan opResult, len(futs))
	for _, f := range futs {
		go func(f *future) { ch <- f.wait() }(f)
	}
	return <-ch
}

// replicaSession is the controller's connection to one machine on behalf of
// one distributed transaction. Asynchronous operations — write fan-out and
// the 2PC actions — enqueue onto a FIFO queue drained by a dedicated
// goroutine, exactly like statements written down one JDBC connection:
// per-machine order is preserved, but machines run independently of each
// other — the property that makes the aggressive controller's anomaly
// (Table 1) possible. When the cluster runs with a simulated network, every
// operation crosses the session's controller→machine link, so injected
// latency delays subsequent operations on the same machine exactly as a
// slow connection would.
//
// The queue worker starts with the first enqueued operation. Until then the
// caller is the only goroutine touching the branch, so the synchronous
// operations — reads, the read-only one-phase commit and trace updates —
// run inline on it: a read-only branch costs no goroutine and no channel.
// Once the worker exists they go through the queue like everything else, so
// they still order behind operations in flight on the machine.
type replicaSession struct {
	c       *Cluster
	machine *Machine
	txn     *sqldb.Txn
	link    *netsim.Link // nil without a simulated network
	ops     chan func()  // nil until the first enqueued operation
	closed  chan struct{}
}

// newReplicaSession begins a transaction branch on the machine (across the
// controller's link to it, when a network is simulated).
func newReplicaSession(c *Cluster, m *Machine, db string, globalID uint64) (*replicaSession, error) {
	if m.Failed() {
		return nil, ErrMachineFailed
	}
	link := c.opts.Network.Link(c.endpoint, m.ID())
	var txn *sqldb.Txn
	err := callLink(link, "begin", false, func() error {
		var berr error
		txn, berr = m.Engine().BeginWithID(db, globalID)
		return berr
	})
	if err != nil {
		if txn != nil {
			// Reply lost after the branch began: roll the orphan back so a
			// begin the controller never learned of cannot hold locks.
			_ = txn.Rollback()
		}
		if errors.Is(err, sqldb.ErrNoTable) {
			// The route said this machine hosts the database but its engine
			// disagrees: an aborted replica copy dropped its half-copied
			// destination between routing and begin. Retryable, not a
			// schema error.
			return nil, fmt.Errorf("%w: %s has no %s (%v)", ErrStaleRoute, m.ID(), db, err)
		}
		return nil, err
	}
	return &replicaSession{c: c, machine: m, txn: txn, link: link}, nil
}

// callLink delivers fn across link, or runs it directly on a nil link.
func callLink(link *netsim.Link, op string, idempotent bool, fn func() error) error {
	if link == nil {
		return fn()
	}
	return link.Call(op, idempotent, fn)
}

// call delivers fn across the session's link with bounded
// exponential-backoff retries. Idempotent operations (PREPARE, COMMIT,
// ROLLBACK — all safe to re-deliver, see their engine-side no-op behaviour
// on repeated application) retry on any transient network fault;
// non-idempotent operations (statement execution) retry only when the
// request provably never executed (a dropped request or a partitioned
// link), never on a lost reply, whose outcome is ambiguous.
func (s *replicaSession) call(op string, idempotent bool, fn func() error) error {
	if s.link == nil {
		return fn()
	}
	backoff := s.c.opts.RetryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		err = s.link.Call(op, idempotent, fn)
		if err == nil || !netsim.IsTransient(err) {
			return err
		}
		if !idempotent && netsim.Executed(err) {
			return err
		}
		if attempt >= s.c.opts.RetryLimit {
			return err
		}
		if s.machine.Failed() {
			return ErrMachineFailed
		}
		s.c.metrics.netRetry.With(op).Inc()
		time.Sleep(backoff)
		backoff *= 2
	}
}

func (s *replicaSession) run() {
	defer close(s.closed)
	for f := range s.ops {
		f()
	}
}

// enqueue schedules fn on the session's queue, starting the queue worker on
// first use, and returns a future for its result. fn runs after every
// previously enqueued operation on this machine.
func (s *replicaSession) enqueue(fn func() opResult) *future {
	if s.ops == nil {
		s.ops = make(chan func(), 64)
		s.closed = make(chan struct{})
		go s.run()
	}
	fut := newFuture()
	s.ops <- func() { fut.complete(s.guard(fn)) }
	return fut
}

// do runs a synchronous operation: inline on the caller while the session
// has no queue worker, otherwise through the queue behind the operations
// already in flight.
func (s *replicaSession) do(fn func() opResult) opResult {
	if s.ops == nil {
		return s.guard(fn)
	}
	return s.enqueue(fn).wait()
}

// guard fails fast when the machine has died instead of touching its engine.
func (s *replicaSession) guard(fn func() opResult) opResult {
	if s.machine.Failed() {
		return opResult{err: ErrMachineFailed}
	}
	return fn()
}

// setTrace updates the branch's trace context. With a queue worker running
// the update is enqueued: that keeps the sqldb transaction single-goroutine
// (only the worker touches it) and orders the update behind any operations
// already in flight, so the context applies exactly to the statements
// enqueued after it. Without one it applies inline.
func (s *replicaSession) setTrace(tc obs.SpanContext) {
	if s.ops == nil {
		s.txn.SetTraceContext(tc)
		return
	}
	s.ops <- func() { s.txn.SetTraceContext(tc) }
}

// execStmt enqueues a statement execution (a write's fan-out to one
// replica).
func (s *replicaSession) execStmt(stmt sqldb.Statement, params []sqldb.Value) *future {
	return s.enqueue(func() opResult { return s.exec(stmt, params) })
}

// read executes a read-only statement synchronously (see do).
func (s *replicaSession) read(stmt sqldb.Statement, params []sqldb.Value) opResult {
	return s.do(func() opResult { return s.exec(stmt, params) })
}

func (s *replicaSession) exec(stmt sqldb.Statement, params []sqldb.Value) opResult {
	var res *sqldb.Result
	err := s.call("exec", false, func() error {
		var xerr error
		res, xerr = s.txn.ExecStmt(stmt, params...)
		return xerr
	})
	return opResult{res: res, err: err}
}

// prepare enqueues the PREPARE action of 2PC. It runs after all previously
// enqueued operations on this machine (FIFO), but independently of the
// transaction's pending operations on other machines. PREPARE is
// idempotent at the engine (a prepared transaction re-prepares as a no-op),
// so lost votes are retried.
func (s *replicaSession) prepare() *future {
	return s.enqueue(func() opResult {
		return opResult{err: s.call("prepare", true, s.txn.Prepare)}
	})
}

// commitPrepared enqueues the COMMIT action of 2PC. Idempotent: a second
// delivery finds the transaction committed and returns ErrTxnDone, which
// is normalised to success here so duplicated deliveries are transparent.
func (s *replicaSession) commitPrepared() *future {
	return s.enqueue(func() opResult {
		return opResult{err: alreadyDone(s.call("commit", true, s.txn.CommitPrepared))}
	})
}

// commit runs a one-phase commit (read-only branches) synchronously (see
// do).
func (s *replicaSession) commit() opResult {
	return s.do(func() opResult {
		return opResult{err: alreadyDone(s.call("commit1p", true, s.txn.Commit))}
	})
}

// alreadyDone maps the engine's "transaction already committed" answer to
// success: it is the expected result of re-delivering a commit.
func alreadyDone(err error) error {
	if errors.Is(err, sqldb.ErrTxnDone) {
		return nil
	}
	return err
}

// rollback enqueues a rollback. Idempotent: rolling back an aborted
// transaction is a no-op.
func (s *replicaSession) rollback() *future {
	return s.enqueue(func() opResult {
		return opResult{err: s.call("rollback", true, s.txn.Rollback)}
	})
}

// close shuts the queue down after all enqueued work drains.
func (s *replicaSession) close() {
	if s.ops == nil {
		return
	}
	close(s.ops)
	<-s.closed
}
