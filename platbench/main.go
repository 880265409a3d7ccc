// Command platbench is the platform's benchmark: it boots an in-process
// sdp.Platform served over loopback by ServeWire, runs one of three tenant
// workloads against it with two closed-loop callers, checks the platform's
// answers, and prints the workload's metrics as the last line of standard
// output. See README.md in this directory.
//
//	go run . --workload point-read --seed 1 --seconds 10 --trace 0
//	go run . --selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"sdp/internal/tpcw"
)

// Workload names.
const (
	wlPointRead = "point-read"
	wlTPCW      = "tpcw-ordering"
	wlRecovery  = "recovery"
)

var workloads = []string{wlPointRead, wlTPCW, wlRecovery}

// warmup is the load run before the measured window, so caches fill and
// lazy set-up finishes first.
const warmup = time.Second

// processes is how many fresh processes an untraced run measures in, one
// after another, each setting the platform up and measuring its share of
// the window; each end-to-end metric is the median over them. Part of a
// process's speed is fixed for its lifetime and differs between processes
// (single-process point-read p50 fell into two groups 15% apart), so the
// median of three reports the platform rather than one process's draw.
const processes = 3

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	wl := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters and a traced replay")
	procs := flag.Int("processes", processes, "untraced runs: measure in this many fresh processes, each for its share of the window, and report medians")
	selftest := flag.Bool("selftest", false, "run every workload briefly and check every metric and check")
	flag.Parse()

	var err error
	switch {
	case *selftest:
		err = runSelftest(*seed)
	case checkWorkload(*wl) != nil:
		err = checkWorkload(*wl)
	case *trace == 0 && *procs > 1:
		err = runProcesses(*wl, *seed, *seconds, *procs)
	default:
		err = runOnce(*wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "platbench:", err)
		os.Exit(1)
	}
}

func checkWorkload(wl string) error {
	for _, w := range workloads {
		if w == wl {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (want one of %s)", wl, strings.Join(workloads, ", "))
}

// runOnce measures one workload in this process and prints its metadata
// and result lines. A failed correctness check prints the result with
// correct=false and exits non-zero.
func runOnce(wl string, seed int64, d time.Duration, traced bool) error {
	m, err := measure(wl, seed, d, traced)
	if err != nil {
		return err
	}
	res := result{Correct: len(m.defects) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: m.layer}
	if !traced {
		res.Metrics = m.e2e
		res.Metrics["setup_s"] = metric{Value: m.b.setup.Seconds(), Unit: "s"}
	}
	if err := printLines(m.meta(), res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("correctness checks failed:\n  %s", strings.Join(m.defects, "\n  "))
	}
	return nil
}

// runProcesses runs the untraced measurement in n child processes, one
// after another, each for seconds/n, and prints the median of each metric.
func runProcesses(wl string, seed int64, seconds float64, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	var metas []map[string]any
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", wl, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds/float64(n)), "--trace", "0", "--processes", "1")
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		var meta struct {
			Meta map[string]any `json:"meta"`
		}
		if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil ||
			json.Unmarshal([]byte(lines[len(lines)-2]), &meta) != nil {
			return fmt.Errorf("process %d: %v; printed %q", i+1, runErr, out)
		}
		total.Correct = total.Correct && res.Correct && runErr == nil
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
			total.Metrics[name] = v
		}
		metas = append(metas, meta.Meta)
	}
	for name, vs := range values {
		total.Metrics[name] = metric{Value: median(vs), Unit: total.Metrics[name].Unit}
	}
	// The run's header is the first process's, with the counts that differ
	// between processes listed per process.
	perProcess := []string{"window_s", "samples", "sessions", "cycles", "trace_ops", "elections", "engine_closed", "retried"}
	var counts []map[string]any
	disturbed := false
	for _, m := range metas {
		c := map[string]any{}
		for _, k := range perProcess {
			c[k] = m[k]
		}
		counts = append(counts, c)
		disturbed = disturbed || m["disturbed"] == true
	}
	meta := metas[0]
	meta["window_s"] = seconds
	meta["samples"] = total.Attempted
	meta["disturbed"] = disturbed
	for _, k := range perProcess[2:] {
		delete(meta, k)
	}
	meta["processes"] = counts
	if err := printLines(meta, total); err != nil {
		return err
	}
	if !total.Correct {
		return fmt.Errorf("correctness checks failed in a measuring process")
	}
	return nil
}

func printLines(meta map[string]any, res result) error {
	head, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(head))
	fmt.Println(string(line))
	return nil
}

// meta is the run's metadata header.
func (m *measurement) meta() map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	perSession := pointOpsPerSession
	if m.wl != wlPointRead {
		perSession = 0 // one deck: the ordering mix's weights
		for _, w := range tpcw.OrderingMix.Weights {
			perSession += w
		}
	}
	return map[string]any{
		"commit":        commit,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"workload":      m.wl,
		"seed":          m.seed,
		"warmup_s":      warmup.Seconds(),
		"window_s":      m.load.elapsed.Seconds(),
		"samples":       m.attempted,
		"sessions":      len(m.load.connectUs),
		"cycles":        len(m.cycles),
		"trace_ops":     m.traceOps(),
		"elections":     m.elections,
		"disturbed":     m.elections > 0,
		"engine_closed": m.load.engineClosed,
		"retried":       m.retried,
		"replica_map":   m.placement,
		"callers":       callers,
		"ops_per_sess":  perSession,
		"settings": map[string]any{
			"machines":         machines,
			"replicas":         replicas,
			"read_option":      1,
			"ack":              "conservative",
			"controllers":      controllers,
			"recovery_threads": recoveryThreads,
			"flush_latency_ms": flushLatency.Seconds() * 1e3,
			"pool_pages":       poolPages,
			"disk_latency_ms":  0,
			"trace_sample":     0,
			"placement":        "static first-fit (adaptive off)",
			"tenants":          len(m.b.tenants),
		},
	}
}

// cpuModel reads the processor name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
