package core

import (
	"testing"

	"sdp/internal/sqldb"
)

// readOnlyTxnAllocBudget bounds the heap allocations of one single-replica
// read-only transaction (Begin, prepared point SELECT, Commit) through the
// cluster controller. Running the branch inline measures 13 allocations; a
// queue worker per branch (its goroutine, its 64-slot channel, the closed
// channel and a future and closure per operation) brings it to 23.
const readOnlyTxnAllocBudget = 16

// TestReadOnlyTxnRunsInline checks that a read-only transaction served by
// one replica runs its read and its one-phase commit on the caller: the
// replica session never starts its queue worker, and the transaction stays
// within its allocation budget.
func TestReadOnlyTxnRunsInline(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 2})
	clusterExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	clusterExec(t, c, "INSERT INTO t VALUES (1, 'one')")
	stmt, err := sqldb.Parse("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	params := []sqldb.Value{sqldb.NewInt(1)}

	txn, err := c.Begin("app")
	if err != nil {
		t.Fatal(err)
	}
	res, err := txn.ExecStmt(stmt, params...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "one" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(txn.sessions) != 1 {
		t.Fatalf("read touched %d replicas, want 1", len(txn.sessions))
	}
	for id, s := range txn.sessions {
		if s.ops != nil {
			t.Fatalf("read on %s started the session's queue worker", id)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for id, s := range txn.sessions {
		if s.ops != nil {
			t.Fatalf("one-phase commit on %s started the session's queue worker", id)
		}
	}

	run := func() {
		txn, err := c.Begin("app")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := txn.ExecStmt(stmt, params...); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the plan memo and scratch buffers
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > readOnlyTxnAllocBudget {
		t.Fatalf("read-only transaction allocates %.1f objects, budget is %d", allocs, readOnlyTxnAllocBudget)
	}
}
