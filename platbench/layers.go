package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"sdp"
	"sdp/internal/core"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
	"sdp/internal/wire"
)

// conn is one tenant session at one layer boundary. Every boundary runs the
// same two operations: a prepared point read, and a TPC-W transaction begun
// through tpcw.DB.
type conn interface {
	tpcw.DB
	point(id int64) (string, error)
	close()
}

// runTxn runs one TPC-W transaction of the given kind and commits it,
// rolling back on a statement error.
func runTxn(db tpcw.DB, w *tpcw.Workload, kind tpcw.TxKind, rng *rand.Rand) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	if err := w.Run(kind, tx, rng); err != nil {
		_ = tx.Rollback()
		return err
	}
	return tx.Commit()
}

// pointValue extracts the single TEXT value of a point-read result.
func pointValue(res *sqldb.Result) (string, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return "", fmt.Errorf("point read returned %d rows", len(res.Rows))
	}
	return res.Rows[0][0].Str, nil
}

// wireConn is a session over the wire protocol: one wire.Client with a
// single shared connection (transactions pin a second one).
type wireConn struct {
	c    *wire.Client
	stmt *wire.Stmt
}

func dialWire(addr string, t *tenant) (*wireConn, error) {
	c, err := wire.Dial(wire.ClientConfig{Addr: addr, Database: t.name, Token: t.token, PoolSize: 1})
	if err != nil {
		return nil, err
	}
	stmt, err := c.Prepare(pointSQL)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return &wireConn{c: c, stmt: stmt}, nil
}

// warm readies a fresh session before its timed operations. On a kv
// tenant it prepares the point statement, whose preparation is lazy and
// rides the first execution, which must return the loaded value. On a
// TPC-W tenant it begins and rolls back a transaction, which dials the
// connection wire.Client pins for transactions and leaves it idle for the
// session's first one.
func (w *wireConn) warm(t *tenant) error {
	if t.values == nil {
		tx, err := w.c.Begin()
		if err != nil {
			return err
		}
		return tx.Rollback()
	}
	v, err := w.point(0)
	if err == nil && v != t.values[0] {
		err = fmt.Errorf("%s: key 0 read %q, loaded %q", t.name, v, t.values[0])
	}
	return err
}

func (w *wireConn) point(id int64) (string, error) {
	res, err := w.stmt.Exec(sdp.Int(id))
	if err != nil {
		return "", err
	}
	return pointValue(res)
}

func (w *wireConn) Begin() (tpcw.Txn, error) { return w.c.Begin() }
func (w *wireConn) close()                   { _ = w.c.Close() }

// systemConn is an in-process platform connection (sdp.Conn and sdp.Stmt):
// system routing, core and the engines, without the wire.
type systemConn struct {
	c    *sdp.Conn
	stmt *sdp.Stmt
}

func (s *systemConn) point(id int64) (string, error) {
	res, err := s.stmt.Exec(sdp.Int(id))
	if err != nil {
		return "", err
	}
	return pointValue(res)
}

func (s *systemConn) Begin() (tpcw.Txn, error) { return s.c.Begin() }
func (s *systemConn) close()                   {}

// coreConn drives the cluster controller that colo.Route returns: core
// routing, 2PC and the replica engines.
type coreConn struct {
	cl   *core.Cluster
	db   string
	stmt sqldb.Statement
}

func (c *coreConn) point(id int64) (string, error) {
	tx, err := c.cl.Begin(c.db)
	if err != nil {
		return "", err
	}
	res, err := tx.ExecStmt(c.stmt, sdp.Int(id))
	if err != nil {
		_ = tx.Rollback()
		return "", err
	}
	if err := tx.Commit(); err != nil {
		return "", err
	}
	return pointValue(res)
}

func (c *coreConn) Begin() (tpcw.Txn, error) { return c.cl.Begin(c.db) }
func (c *coreConn) close()                   {}

// engineConn drives a standalone engine. Transactions record the write
// statements they execute, so the wal boundary can replay their log
// records.
type engineConn struct {
	e      *sqldb.Engine
	db     string
	stmt   sqldb.Statement
	writes *[]string // write statements of the last transaction
}

func (c *engineConn) point(id int64) (string, error) {
	tx, err := c.e.Begin(c.db)
	if err != nil {
		return "", err
	}
	res, err := tx.ExecStmt(c.stmt, sdp.Int(id))
	if err != nil {
		_ = tx.Rollback()
		return "", err
	}
	if err := tx.Commit(); err != nil {
		return "", err
	}
	return pointValue(res)
}

func (c *engineConn) Begin() (tpcw.Txn, error) {
	tx, err := c.e.Begin(c.db)
	if err != nil {
		return nil, err
	}
	*c.writes = (*c.writes)[:0]
	return recordingTxn{Txn: tx, writes: c.writes}, nil
}

func (c *engineConn) close() {}

// recordingTxn notes the text of each write statement (the engine logs a
// write statement as one WAL record).
type recordingTxn struct {
	*sqldb.Txn
	writes *[]string
}

func (r recordingTxn) Exec(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	res, err := r.Txn.Exec(sql, params...)
	if err == nil && !isSelect(sql) {
		*r.writes = append(*r.writes, fmt.Sprint(sql, params))
	}
	return res, err
}

func isSelect(sql string) bool { return len(sql) >= 6 && sql[:6] == "SELECT" }

// engineClosed reports an error from a failed machine's closed engine.
// The platform treats sqldb.ErrEngineClosed as a machine failure, and its
// chaos harness counts it as a clean abort, but the wire server sends it as
// a plain execution error (code 7) rather than as a machine failure (code
// 105), so over the wire only its message identifies it.
func engineClosed(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Code == wire.ErrCodeExec && strings.Contains(we.Msg, sqldb.ErrEngineClosed.Error())
	}
	return errors.Is(err, sqldb.ErrEngineClosed)
}

// retryable sorts an operation error: a retryable one (deadlock, lock
// timeout, Algorithm 1 rejection, machine failure) is a failed operation; any
// other is a defect that fails the run.
func retryable(err error) bool {
	return wire.IsRetryable(err) || core.IsRetryable(err)
}
