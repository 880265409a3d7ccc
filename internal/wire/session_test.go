package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"sdp/internal/core"
	"sdp/internal/sqldb"
)

// rawSession opens a connection to srv and completes the handshake by hand,
// so the test holds the socket with no client goroutine behind it.
func rawSession(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	hello := appendString(appendString([]byte{ProtoVersion}, "app"), testToken)
	if _, err := writeFrame(nc, MsgHello, 1, hello); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	f, _, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != MsgWelcome {
		t.Fatalf("handshake answered with type %#x", f.typ)
	}
	return nc, br
}

// TestServerOneGoroutinePerConn checks that the server serves each
// connection on one goroutine: N idle sessions cost about N goroutines.
func TestServerOneGoroutinePerConn(t *testing.T) {
	srv, _ := newTestServer(t)
	const n = 64
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		rawSession(t, srv)
	}
	// Each session answered its handshake, so all n are being served. The
	// slack absorbs goroutines of earlier tests still winding down.
	if grown := runtime.NumGoroutine() - before; grown > n+n/4 {
		t.Fatalf("%d idle connections grew the goroutine count by %d, want about %d", n, grown, n)
	}
}

// TestServerPipelinedBurst writes 500 requests in one burst before reading
// any answer; they must all be answered, in order.
func TestServerPipelinedBurst(t *testing.T) {
	srv, _ := newTestServer(t)
	nc, br := rawSession(t, srv)

	if _, err := writeFrame(nc, MsgPrepare, 2, appendString(nil, "SELECT v FROM t WHERE id = ?")); err != nil {
		t.Fatal(err)
	}
	f, _, err := readFrame(br)
	if err != nil || f.typ != MsgStmt {
		t.Fatalf("prepare: type %#x, err %v", f.typ, err)
	}
	id := (&reader{buf: f.payload}).u32()

	const burst = 500
	const firstSeq = 10
	var out []byte
	for i := 0; i < burst; i++ {
		payload, err := appendParams(appendU32(nil, id), []sqldb.Value{sqldb.NewInt(int64(i % 100))})
		if err != nil {
			t.Fatal(err)
		}
		out = appendU32(out, uint32(frameHeaderSize+len(payload)))
		out = append(out, MsgExec)
		out = appendU64(out, uint64(firstSeq+i))
		out = append(out, payload...)
	}
	werr := make(chan error, 1)
	go func() {
		_, err := nc.Write(out)
		werr <- err
	}()
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < burst; i++ {
		f, _, err := readFrame(br)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if f.seq != uint64(firstSeq+i) {
			t.Fatalf("answer %d carries seq %d, want %d", i, f.seq, firstSeq+i)
		}
		res, err := decodeExecReply(f)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i%100); len(res.Rows) != 1 || res.Rows[0][0].Str != want {
			t.Fatalf("answer %d: rows %v, want %s", i, res.Rows, want)
		}
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
}

// TestServerClosedEngineIsMachineFailure checks that a statement reaching a
// failed machine's closed engine is reported as retryable code 105, the
// same as any other machine failure.
func TestServerClosedEngineIsMachineFailure(t *testing.T) {
	srv, c := newTestServer(t)
	client := newTestClient(t, srv)
	reps, err := c.Replicas("app")
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Machine(reps[len(reps)-1])
	if err != nil {
		t.Fatal(err)
	}
	m.Engine().Close()

	// An explicit transaction never retries, so the first error surfaces.
	tx, err := client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_, err = tx.Exec("UPDATE t SET v = 'x' WHERE id = 1")
	_ = tx.Rollback()
	var we *Error
	if !errors.As(err, &we) || we.Code != ErrCodeMachineFailed {
		t.Fatalf("write to a closed engine: got %v, want code %d", err, ErrCodeMachineFailed)
	}
	if !IsRetryable(err) || !errors.Is(err, core.ErrMachineFailed) {
		t.Fatalf("closed-engine error %v is not a retryable machine failure", err)
	}
}

// gateBackend executes every statement as a one-row write and records its
// first parameter. The first statement blocks until release is closed.
type gateBackend struct {
	entered chan struct{}
	release chan struct{}

	mu       sync.Mutex
	executed []int64
}

func (b *gateBackend) Authenticate(db, token string) error { return nil }
func (b *gateBackend) Begin(db string) (Txn, error)        { return gateTxn{b}, nil }

type gateTxn struct{ b *gateBackend }

func (t gateTxn) ExecStmt(sql string, stmt sqldb.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	t.b.mu.Lock()
	t.b.executed = append(t.b.executed, params[0].Int)
	first := len(t.b.executed) == 1
	t.b.mu.Unlock()
	if first {
		close(t.b.entered)
		<-t.b.release
	}
	return &sqldb.Result{Affected: 1}, nil
}

func (t gateTxn) Commit() error   { return nil }
func (t gateTxn) Rollback() error { return nil }

// TestServerDrainUnderPipelinedWrite drains the server while one write
// executes and more are pipelined behind it on the same connection. The
// server answers the write it read, then says goodbye; the writes it never
// read must fail with a retryable shutdown error, and must not have run.
func TestServerDrainUnderPipelinedWrite(t *testing.T) {
	gb := &gateBackend{entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := Serve("127.0.0.1:0", ServerConfig{Backend: gb, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(ClientConfig{Addr: srv.Addr(), Database: "app", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cc, err := client.sharedConn()
	if err != nil {
		t.Fatal(err)
	}

	const writes = 8
	errs := make([]error, writes)
	var wg sync.WaitGroup
	write := func(i int) {
		defer wg.Done()
		payload, err := appendParams(appendString(nil, "INSERT INTO t VALUES (?)"), []sqldb.Value{sqldb.NewInt(int64(i))})
		if err != nil {
			errs[i] = err
			return
		}
		_, errs[i] = cc.execFrame(MsgQuery, payload)
	}
	wg.Add(1)
	go write(0)
	<-gb.entered // the session is executing write 0 and not reading
	for i := 1; i < writes; i++ {
		wg.Add(1)
		go write(i)
	}
	waitFor(t, "pipelined writes pending", func() bool {
		cc.pmu.Lock()
		defer cc.pmu.Unlock()
		return len(cc.pending) == writes
	})

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	waitFor(t, "session draining", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for s := range srv.conns {
			if !s.draining.Load() {
				return false
			}
		}
		return srv.draining
	})
	close(gb.release)
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	if errs[0] != nil {
		t.Fatalf("the write executing when the drain began failed: %v", errs[0])
	}
	for i := 1; i < writes; i++ {
		if !IsRetryable(errs[i]) || !errors.Is(errs[i], ErrServerShutdown) {
			t.Fatalf("pipelined write %d: got %v, want a retryable shutdown error", i, errs[i])
		}
	}
	gb.mu.Lock()
	defer gb.mu.Unlock()
	if len(gb.executed) != 1 || gb.executed[0] != 0 {
		t.Fatalf("server executed writes %v, want only write 0", gb.executed)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
