package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/core"
	"sdp/internal/history"
	"sdp/internal/netsim"
	"sdp/internal/obs"
	"sdp/internal/placement"
	"sdp/internal/sla"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
	"sdp/internal/wal"
)

// ChaosConfig controls one chaos soak run: TPC-W traffic against a
// replicated WAL-backed cluster while a seeded fault scheduler injects
// network faults (drops, lost replies, duplicated deliveries, latency,
// asymmetric partitions) and machine crashes — including crash-at-phase
// kills armed on 2PC PREPARE deliveries. Identical Seed+Duration+Clients
// reproduce the same fault schedule, so a failing run is replayable.
type ChaosConfig struct {
	// Seed drives the network PRNG, the fault scheduler, and the workload.
	Seed int64
	// Duration is how long faulted traffic runs (excludes load and final
	// settling). Zero defaults to 10s, or 2s with Quick.
	Duration time.Duration
	// Clients is the number of concurrent TPC-W sessions (default 4).
	Clients int
	// Quick shrinks the default duration for CI smoke runs.
	Quick bool
	// Controllers is the number of replicated cluster-controller replicas
	// (default 3); the scheduler then also kills and restarts controllers —
	// including leader kills armed to fire mid-2PC and mid-replica-copy —
	// and the invariant check requires the surviving replicas' control
	// state machines to converge. Negative runs the paper's original
	// single process-pair controller with no controller chaos.
	Controllers int
	// Placement additionally runs the adaptive provisioning controller
	// during the soak: an SLA monitor feeds the decision loop, which grows,
	// shrinks, and migrates replicas while the scheduler crashes machines
	// and kills controller leaders under it. The invariants must hold with
	// the loop's Algorithm 1 copies racing the injected faults.
	Placement bool
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
		if c.Quick {
			c.Duration = 2 * time.Second
		}
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Controllers == 0 {
		c.Controllers = 3
	} else if c.Controllers < 0 {
		c.Controllers = 0
	}
	return c
}

// ChaosReport summarises a chaos run: traffic outcomes, the fault schedule
// that was actually injected, the controller's failure handling counters,
// and — the point of the exercise — the invariant violations found after
// the network quiesced (empty means the run passed).
type ChaosReport struct {
	Seed     int64
	Duration time.Duration

	// Traffic.
	Committed uint64
	Aborted   uint64
	Rejected  uint64
	Fatal     uint64

	// Injected faults.
	Crashes        int
	PhaseCrashes   int // crash-at-PREPARE kills
	Restarts       int
	Partitions     int
	NetCalls       uint64
	Dropped        uint64
	ReplyLost      uint64
	Duplicated     uint64
	PartitionDrops uint64

	// Controller chaos (Controllers > 0 only).
	CtlKills         int // controller replicas killed (leader or follower)
	CtlPhaseKills    int // leader kills armed on a 2PC PREPARE delivery
	CtlMidCopyKills  int // leader kills armed on an Algorithm 1 copy delivery
	CtlRestarts      int
	CtlElections     uint64 // consensus elections started during the run
	CtlLeaderChanges uint64 // distinct leadership changes observed

	// Adaptive placement during the soak (Placement runs only).
	Placement         bool
	PlacementGrows    uint64
	PlacementShrinks  uint64
	PlacementMigrates uint64

	// Controller failure handling.
	PrepareTimeouts uint64
	CommitTimeouts  uint64
	PresumedAborts  uint64
	Retries         uint64
	DegradedReads   uint64
	BgResolved      uint64

	// Violations lists every invariant breach: a serialization-graph
	// cycle, replica divergence, or leaked locks. Empty means the run
	// passed.
	Violations []string
	// FatalErrors samples the first few errors classified as fatal, for
	// diagnosing failing seeds without a debugger.
	FatalErrors []string
}

// Passed reports whether the run satisfied every invariant.
func (r *ChaosReport) Passed() bool { return len(r.Violations) == 0 }

// WriteText renders the report for terminal output.
func (r *ChaosReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "chaos seed=%d duration=%s\n", r.Seed, r.Duration)
	fmt.Fprintf(w, "  traffic:  %d committed, %d aborted, %d rejected, %d fatal\n",
		r.Committed, r.Aborted, r.Rejected, r.Fatal)
	fmt.Fprintf(w, "  faults:   %d crashes (%d at PREPARE), %d restarts, %d partitions; %d calls: %d dropped, %d replies lost, %d duplicated, %d refused\n",
		r.Crashes, r.PhaseCrashes, r.Restarts, r.Partitions,
		r.NetCalls, r.Dropped, r.ReplyLost, r.Duplicated, r.PartitionDrops)
	fmt.Fprintf(w, "  handling: %d prepare timeouts, %d commit timeouts, %d presumed aborts, %d retries, %d degraded reads, %d background resolutions\n",
		r.PrepareTimeouts, r.CommitTimeouts, r.PresumedAborts, r.Retries, r.DegradedReads, r.BgResolved)
	if r.CtlKills > 0 || r.CtlRestarts > 0 || r.CtlElections > 0 {
		fmt.Fprintf(w, "  control:  %d controller kills (%d at PREPARE, %d mid-copy), %d restarts, %d elections, %d leader changes\n",
			r.CtlKills, r.CtlPhaseKills, r.CtlMidCopyKills, r.CtlRestarts, r.CtlElections, r.CtlLeaderChanges)
	}
	if r.Placement {
		fmt.Fprintf(w, "  placement: %d grows, %d shrinks, %d migrates under fault injection\n",
			r.PlacementGrows, r.PlacementShrinks, r.PlacementMigrates)
	}
	if r.Passed() {
		fmt.Fprintf(w, "  invariants: serializable, replicas converged, no leaked locks\n")
		return
	}
	fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    - %s\n", v)
	}
}

// chaosClassify maps chaos-run errors onto TPC-W accounting: rejections
// stay rejections, every transient failure mode the fault layer can produce
// (network faults, timeouts, machine failures, an engine closing mid-call —
// all of them core.IsRetryable) is a clean abort the client retries, and
// anything else is fatal.
func chaosClassify(err error) tpcw.ErrorClass {
	switch {
	case core.IsRejection(err):
		return tpcw.ClassRejected
	case errors.Is(err, core.ErrNotLeader), errors.Is(err, core.ErrNoQuorum):
		// Controller failover in progress: the data path refuses new
		// transactions until a leader holds the lease again. A real
		// application server backs off rather than hammering Begin, so
		// sleep a hair — otherwise the session loop burns the whole soak
		// spinning on the refused Begin at millions of aborts per second.
		time.Sleep(200 * time.Microsecond)
		return tpcw.ClassAborted
	case core.IsRetryable(err):
		return tpcw.ClassAborted
	default:
		return tpcw.DefaultClassifier(err)
	}
}

// RunChaos executes one chaos soak run and returns its report. The run only
// errors on setup problems; invariant breaches are reported in
// ChaosReport.Violations so the caller can print the seed and fail.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	rec := history.NewRecorder()
	reg := obs.NewRegistry()
	net := netsim.New(cfg.Seed, reg)

	engineCfg := sqldb.DefaultConfig()
	engineCfg.LockTimeout = 100 * time.Millisecond
	// The placement soak feeds an SLA monitor so the adaptive controller
	// has live signals to act on; windows are coarse because chaos-run
	// throughput swings wildly and the loop should chase sustained state,
	// not fault transients.
	var mon *sla.Monitor
	if cfg.Placement {
		mon = sla.NewMonitor(reg, sla.MonitorOptions{Window: 250 * time.Millisecond})
	}
	// Conservative + Option 1 is the paper's always-serializable pairing:
	// under it every surviving history must be one-copy serializable no
	// matter what the network does — which is exactly what we assert.
	c := core.NewCluster("chaos", core.Options{
		ReadOption:   core.ReadOption1,
		AckMode:      core.Conservative,
		Replicas:     2,
		EngineConfig: engineCfg,
		Recorder:     rec,
		Metrics:      reg,
		SLAMonitor:   mon,
		WAL:          &wal.Config{},
		Network:      net,
		CallTimeout:  200 * time.Millisecond,
		RetryLimit:   6,
		RetryBackoff: 500 * time.Microsecond,
		// Replicated control plane: consensus traffic rides the same
		// faulted network as the data path, and the scheduler kills
		// controller replicas on top of everything else.
		Controllers:               cfg.Controllers,
		ControllerSeed:            cfg.Seed,
		ControllerElectionTimeout: 40 * time.Millisecond,
	})
	if _, err := c.AddMachines(3); err != nil {
		return nil, err
	}
	if err := c.CreateDatabase("app"); err != nil {
		return nil, err
	}
	db := clusterDB{c: c, db: "app"}
	scale := tpcw.SmallScale(cfg.Seed)
	if err := tpcw.Load(db, scale); err != nil {
		return nil, err
	}
	rec.Reset() // record only the faulted concurrent workload

	report := &ChaosReport{Seed: cfg.Seed, Duration: cfg.Duration}
	var fatalMu sync.Mutex
	classify := func(err error) tpcw.ErrorClass {
		class := chaosClassify(err)
		if class == tpcw.ClassFatal {
			fatalMu.Lock()
			if len(report.FatalErrors) < 8 {
				report.FatalErrors = append(report.FatalErrors, err.Error())
			}
			fatalMu.Unlock()
		}
		return class
	}
	client := &tpcw.Client{
		DB:       db,
		Mix:      tpcw.OrderingMix,
		Workload: tpcw.NewWorkload(scale),
		Classify: classify,
	}

	// The adaptive controller soaks alongside the fault schedule: its
	// grows/shrinks/migrates ride the same faulted network and race the
	// scheduler's crashes and leader kills. A denied or orphaned action is
	// fine — the loop is level-triggered — but no schedule may break the
	// end-of-run invariants.
	var ctl *core.AdaptiveController
	if cfg.Placement {
		report.Placement = true
		mon.Track("app", sla.SLA{
			MinThroughput:     1,
			MaxRejectFraction: 0.95,
			MaxMeanLatency:    2 * time.Millisecond,
		})
		ctl = c.NewAdaptiveController(core.AdaptiveConfig{
			Interval:           100 * time.Millisecond,
			Budget:             placement.Budget{MinReplicas: 2, MaxReplicas: 3},
			MaxConcurrentMoves: 1,
		})
		ctl.Start()
	}

	// Traffic and the fault scheduler run side by side for the duration.
	var st tpcw.Stats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st = client.RunConcurrent(cfg.Clients, cfg.Duration, cfg.Seed)
	}()
	sched := newChaosScheduler(c, net, cfg.Seed, report)
	sched.run(cfg.Duration)
	wg.Wait()

	// Settle: perfect network, every machine live and caught up, every
	// out-of-band 2PC resolution delivered. The decision loop stops (and
	// its in-flight copies drain) before the scheduler's final restore, so
	// the invariant checks see a cluster no one is still reshaping.
	net.Quiesce()
	if ctl != nil {
		ctl.Stop()
		report.PlacementGrows, report.PlacementShrinks, report.PlacementMigrates = ctl.Actions()
	}
	sched.restoreAll()
	c.DrainResolvers()

	report.Committed = st.Committed
	report.Aborted = st.Aborted
	report.Rejected = st.Rejected
	report.Fatal = st.Fatal
	report.NetCalls = reg.Counter("netsim_calls_total", "").Value()
	report.Dropped = reg.Counter("netsim_dropped_total", "").Value()
	report.ReplyLost = reg.Counter("netsim_reply_lost_total", "").Value()
	report.Duplicated = reg.Counter("netsim_duplicated_total", "").Value()
	report.PartitionDrops = reg.Counter("netsim_partition_refused_total", "").Value()
	report.PrepareTimeouts = reg.CounterVec("twopc_timeout_total", "", "phase").With("prepare").Value()
	report.CommitTimeouts = reg.CounterVec("twopc_timeout_total", "", "phase").With("commit").Value()
	report.PresumedAborts = reg.Counter("core_2pc_presumed_abort_total", "").Value()
	report.DegradedReads = reg.Counter("core_read_route_degraded_total", "").Value()
	for _, op := range []string{"begin", "exec", "prepare", "commit", "commit1p", "rollback"} {
		report.Retries += reg.CounterVec("core_net_retry_total", "", "op").With(op).Value()
	}
	for _, res := range []string{"delivered", "machine_failed", "abandoned"} {
		report.BgResolved += reg.CounterVec("core_2pc_background_resolution_total", "", "result").With(res).Value()
	}
	report.CtlElections = reg.Counter("consensus_elections_total", "").Value()
	report.CtlLeaderChanges = reg.Counter("consensus_leader_changes_total", "").Value()
	if st.Fatal > 0 {
		report.Violations = append(report.Violations,
			fmt.Sprintf("%d fatal client errors (unclassified failure surfaced to the application): %s",
				st.Fatal, strings.Join(report.FatalErrors, "; ")))
	}

	checkChaosInvariants(c, rec, report)
	if len(report.Violations) > 0 && os.Getenv("SDP_CHAOS_DEBUG") == "1" {
		reps, _ := c.Replicas("app")
		fmt.Fprintf(os.Stderr, "DEBUG final replicas: %v\n", reps)
		for _, ev := range reg.Trace().Events() {
			interesting := ev.Scope == "copy" || ev.Scope == "recovery" || ev.Scope == "placement" ||
				(ev.Scope == "2pc" && strings.HasPrefix(ev.Phase, "takeover")) ||
				(ev.Scope == "2pc" && strings.HasPrefix(ev.Phase, "resolve")) ||
				(ev.Scope == "2pc" && ev.Phase == "presumed_abort")
			if interesting {
				fmt.Fprintf(os.Stderr, "DEBUG %s %s %s %s %s\n", ev.Time.Format("15:04:05.000"), ev.Scope, ev.ID, ev.Phase, ev.Detail)
			}
		}
	}
	return report, nil
}

// chaosScheduler injects faults on a deterministic schedule drawn from its
// own PRNG (separate from the network's per-delivery PRNG, so the schedule
// does not depend on traffic volume).
type chaosScheduler struct {
	c      *core.Cluster
	net    *netsim.Network
	rng    *rand.Rand
	report *ChaosReport

	// At most one machine is down at a time, so the database always keeps
	// at least one live replica (2 replicas on 3 machines).
	down        string
	crashArmed  *atomic.Bool // pending crash-at-PREPARE hook, nil if none
	partitioned string       // machine behind a controller-link partition

	// At most one controller kill is outstanding at a time, so a
	// 3-replica control plane always regains its quorum (a kill costs
	// availability only for the failover window, never indefinitely).
	ctlDown    bool         // a controller kill is outstanding (fired or armed)
	ctlArmed   *atomic.Bool // pending armed leader kill, nil if none
	ctlArmedOp string       // delivery op the armed kill triggers on
}

func newChaosScheduler(c *core.Cluster, net *netsim.Network, seed int64, report *ChaosReport) *chaosScheduler {
	return &chaosScheduler{
		c:      c,
		net:    net,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed5eed)),
		report: report,
	}
}

// run injects faults until the deadline.
func (s *chaosScheduler) run(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		time.Sleep(time.Duration(10+s.rng.Intn(30)) * time.Millisecond)
		switch p := s.rng.Intn(100); {
		case p < 25:
			// Network-wide low-grade lossiness.
			s.net.SetDefaults(netsim.Faults{
				DropProb:      0.04 * s.rng.Float64(),
				ReplyLossProb: 0.03 * s.rng.Float64(),
				DupProb:       0.10 * s.rng.Float64(),
				Latency:       time.Duration(s.rng.Intn(2)) * time.Millisecond,
				Jitter:        time.Duration(1+s.rng.Intn(2)) * time.Millisecond,
			})
		case p < 40:
			s.net.SetDefaults(netsim.Faults{})
		case p < 55:
			s.togglePartition()
		case p < 78:
			s.toggleCrash()
		case p < 93:
			s.toggleCtlCrash()
		default:
			// Quiet tick.
		}
	}
}

// togglePartition heals the current controller-link partition or cuts a new
// one (asymmetric: only controller→machine).
func (s *chaosScheduler) togglePartition() {
	if s.partitioned != "" {
		s.net.Heal(s.c.Endpoint(), s.partitioned)
		s.partitioned = ""
		return
	}
	ids := s.c.MachineIDs()
	victim := ids[s.rng.Intn(len(ids))]
	if victim == s.down {
		return
	}
	s.net.Partition(s.c.Endpoint(), victim)
	s.partitioned = victim
	s.report.Partitions++
}

// toggleCrash restarts the currently down machine, or crashes a new victim —
// immediately, or armed to fire in the window right after the victim's next
// PREPARE ack (the in-doubt 2PC participant case).
func (s *chaosScheduler) toggleCrash() {
	if s.down != "" {
		s.restartDown()
		return
	}
	// Only inject a new crash at full replica strength: an earlier
	// recovery may have failed under active faults (the copy path crosses
	// faulted links by design), and crashing another machine then could
	// take the database's last replica. Retry the recovery instead.
	if reps, err := s.c.Replicas("app"); err != nil || len(reps) < 2 {
		s.c.RecoverDatabases([]string{"app"}, 1)
		return
	}
	ids := s.c.MachineIDs()
	victim := ids[s.rng.Intn(len(ids))]
	if victim == s.partitioned {
		return
	}
	s.down = victim
	if s.rng.Intn(100) < 30 {
		// Crash-at-phase: the kill fires from the delivery hook, in the
		// exact "prepared but no COMMIT yet" window.
		armed := &atomic.Bool{}
		armed.Store(true)
		s.crashArmed = armed
		cl := s.c
		s.net.OnDeliver(func(ci netsim.CallInfo) {
			if ci.Op == "prepare" && ci.To == victim && armed.CompareAndSwap(true, false) {
				_, _ = cl.FailMachine(victim)
			}
		})
		s.report.PhaseCrashes++
		s.report.Crashes++
		return
	}
	if _, err := s.c.FailMachine(victim); err != nil {
		s.down = ""
		return
	}
	s.report.Crashes++
}

// toggleCtlCrash restores the killed controller replica, or kills the
// consensus leader: immediately, or armed to fire from the delivery hook in
// the window right after a 2PC PREPARE (commits in transit) or mid
// Algorithm 1 copy (a copy in flight the next leader must abort).
func (s *chaosScheduler) toggleCtlCrash() {
	if len(s.c.ControllerIDs()) == 0 {
		return // legacy single-controller mode
	}
	if s.ctlDown {
		s.restoreControllers()
		return
	}
	if leader, _ := s.c.LeaderController(); leader == "" {
		return // mid-election; let the control plane settle first
	}
	switch s.rng.Intn(3) {
	case 0:
		// Immediate leader kill, whatever the traffic is doing.
		if _, err := s.c.KillLeaderController(); err != nil {
			return
		}
	case 1:
		s.armCtlKill("prepare")
		s.report.CtlPhaseKills++
	default:
		s.armCtlKill("copy_apply")
		s.report.CtlMidCopyKills++
	}
	s.ctlDown = true
	s.report.CtlKills++
}

// armCtlKill installs a delivery hook that kills the consensus leader right
// after the next delivery of the given op. The kill runs on a fresh
// goroutine: it blocks on control-plane cleanup, which must not stall the
// delivering path.
func (s *chaosScheduler) armCtlKill(op string) {
	armed := &atomic.Bool{}
	armed.Store(true)
	s.ctlArmed = armed
	s.ctlArmedOp = op
	cl := s.c
	s.net.OnDeliver(func(ci netsim.CallInfo) {
		if ci.Op == op && armed.CompareAndSwap(true, false) {
			go func() { _, _ = cl.KillLeaderController() }()
		}
	})
}

// restoreControllers disarms any pending leader kill and restarts every
// stopped controller replica.
func (s *chaosScheduler) restoreControllers() {
	if s.ctlArmed != nil {
		if s.ctlArmed.CompareAndSwap(true, false) {
			// Never fired: no delivery of the armed op happened.
			s.report.CtlKills--
			switch s.ctlArmedOp {
			case "prepare":
				s.report.CtlPhaseKills--
			default:
				s.report.CtlMidCopyKills--
			}
		}
		s.ctlArmed = nil
		s.ctlArmedOp = ""
	}
	s.report.CtlRestarts += s.c.RestartControllers()
	s.ctlDown = false
}

// restartDown disarms any pending phase crash and, if the victim actually
// died, restarts it and catches its databases up.
func (s *chaosScheduler) restartDown() {
	victim := s.down
	if s.crashArmed != nil {
		s.crashArmed.Store(false)
		s.crashArmed = nil
	}
	m, err := s.c.Machine(victim)
	if err != nil {
		s.down = ""
		return
	}
	if !m.Failed() {
		// The armed crash never fired (no PREPARE reached the victim).
		s.down = ""
		s.report.Crashes--
		if s.report.PhaseCrashes > 0 {
			s.report.PhaseCrashes--
		}
		return
	}
	if _, err := s.c.RestartMachine(victim); err != nil {
		return // stays down; restoreAll retries at the end
	}
	s.c.RecoverDatabases(m.Engine().Databases(), 1)
	s.down = ""
	s.report.Restarts++
}

// restoreAll brings the cluster back to full strength after the run: heals
// the partition bookkeeping (the network is already quiesced), restarts any
// machine still down, and revives killed controller replicas.
func (s *chaosScheduler) restoreAll() {
	s.partitioned = ""
	if s.ctlDown {
		s.restoreControllers()
	} else {
		// An armed kill whose goroutine fired right before quiesce may
		// have stopped a controller after the last scheduler tick.
		s.report.CtlRestarts += s.c.RestartControllers()
	}
	if len(s.c.ControllerIDs()) > 0 {
		// Let the restarted control plane finish its failover before any
		// recovery work: a leader whose adoption is still running sweeps
		// up fresh copies as failover orphans and aborts them.
		_ = s.c.WaitControllerSettled(5 * time.Second)
		// A controller kill near the end of the run leaves commits parked
		// in the pair mirror until that takeover resolves them; parked
		// commits hold locks that would both fail the leaked-lock
		// invariant and block the recovery copy below.
		deadline := time.Now().Add(5 * time.Second)
		for s.c.InTransit() > 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if s.down != "" {
		s.restartDown()
	}
	// With the network quiesced, a recovery that failed under faults
	// mid-run succeeds now; bring the database back to full strength so
	// the convergence check compares a complete replica set. Retried
	// because a straggling failover can still abort the first attempt.
	deadline := time.Now().Add(5 * time.Second)
	for {
		reps, err := s.c.Replicas("app")
		if err != nil || len(reps) >= 2 || time.Now().After(deadline) {
			break
		}
		s.c.RecoverDatabases([]string{"app"}, 1)
		time.Sleep(2 * time.Millisecond)
	}
}

// checkChaosInvariants verifies, over the settled cluster, the three
// properties no fault schedule may break: one-copy serializability of the
// recorded history, byte-identical replicas, and zero leaked locks.
func checkChaosInvariants(c *core.Cluster, rec *history.Recorder, report *ChaosReport) {
	if ok, cycle, g := history.Check(rec); !ok {
		report.Violations = append(report.Violations,
			"serialization graph has a cycle:\n"+g.Describe(cycle))
	}

	// With a replicated control plane, every controller replica's state
	// machine must converge to the same committed control state once the
	// network settles — divergence means the consensus log forked.
	if len(c.ControllerIDs()) > 0 {
		if err := c.WaitControllerConvergence(5 * time.Second); err != nil {
			report.Violations = append(report.Violations, err.Error())
		}
	}

	reps, err := c.Replicas("app")
	if err != nil {
		report.Violations = append(report.Violations, "replicas: "+err.Error())
		return
	}
	if len(reps) < 2 {
		report.Violations = append(report.Violations,
			fmt.Sprintf("replica set not restored: %v", reps))
	}
	var ref *core.Machine
	for _, id := range reps {
		m, merr := c.Machine(id)
		if merr != nil {
			report.Violations = append(report.Violations, merr.Error())
			continue
		}
		if locks := m.Engine().Stats().LocksHeld; locks != 0 {
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: %d locks still held after quiesce", id, locks))
		}
		if ref == nil {
			ref = m
			continue
		}
		for _, tbl := range ref.Engine().Tables("app") {
			want, werr := tableFingerprint(ref, tbl)
			got, gerr := tableFingerprint(m, tbl)
			if werr != nil || gerr != nil {
				report.Violations = append(report.Violations,
					fmt.Sprintf("dump %s: %v %v", tbl, werr, gerr))
				continue
			}
			if want != got {
				report.Violations = append(report.Violations,
					fmt.Sprintf("replica divergence on table %s between %s and %s", tbl, ref.ID(), m.ID()))
				if os.Getenv("SDP_CHAOS_DEBUG") == "1" {
					wrows := strings.Split(want, "\n")
					grows := strings.Split(got, "\n")
					wset := make(map[string]bool, len(wrows))
					for _, r := range wrows {
						wset[r] = true
					}
					gset := make(map[string]bool, len(grows))
					for _, r := range grows {
						gset[r] = true
					}
					n := 0
					for _, r := range wrows {
						if !gset[r] && n < 6 {
							fmt.Fprintf(os.Stderr, "DEBUG %s: only on %s: %s\n", tbl, ref.ID(), r)
							n++
						}
					}
					n = 0
					for _, r := range grows {
						if !wset[r] && n < 6 {
							fmt.Fprintf(os.Stderr, "DEBUG %s: only on %s: %s\n", tbl, m.ID(), r)
							n++
						}
					}
				}
			}
		}
	}
}

// tableFingerprint renders a table's full contents as an order-independent
// string for cross-replica comparison.
func tableFingerprint(m *core.Machine, tbl string) (string, error) {
	res, err := m.Engine().Exec("app", "SELECT * FROM "+tbl)
	if err != nil {
		return "", err
	}
	rows := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var b strings.Builder
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		rows = append(rows, b.String())
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n"), nil
}
