package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// selftestSeconds is each workload's measured window in the self-test.
const selftestSeconds = 3

// maxTraceOverhead is how far the traced point-read sample's wire-boundary
// median may sit from the untraced window's p50_us. The self-sum check is
// close to an identity, because paired self times telescope to the wire
// time; this one checks that the traced replay measures the load it peels.
const maxTraceOverhead = 0.25

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSelftest runs every workload briefly, untraced and traced, each in a
// child process started exactly as the benchmark is run. It asserts that
// every run exits cleanly with every correctness check passed, that the
// result lines carry exactly the metrics BENCHMARK.json names, with their
// units, that every end-to-end value is positive, and that on point-read
// the layer self times add up to the wire-boundary median within 10% and
// that median is within maxTraceOverhead of the untraced p50_us.
func runSelftest(seed int64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run the self-test from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var bad []string
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			what := fmt.Sprintf("%s --trace %s", wl, trace)
			cmd := exec.Command(exe, "--workload", wl, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(selftestSeconds), "--trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", what, err))
				continue
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			var meta struct {
				Meta struct {
					Cycles    int `json:"cycles"`
					Processes []struct {
						Cycles int `json:"cycles"`
					} `json:"processes"`
				} `json:"meta"`
			}
			if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil ||
				json.Unmarshal([]byte(lines[len(lines)-2]), &meta) != nil {
				bad = append(bad, fmt.Sprintf("%s: no metadata and result lines in %q", what, out))
				continue
			}
			if !res.Correct || res.Attempted < 1 {
				bad = append(bad, fmt.Sprintf("%s: correct=%v attempted=%d", what, res.Correct, res.Attempted))
			}
			if trace == "0" {
				bad = append(bad, sameMetrics(what, res.Metrics, sp.EndToEnd)...)
				for name, v := range res.Metrics {
					if !(v.Value > 0) || math.IsInf(v.Value, 0) {
						bad = append(bad, fmt.Sprintf("%s: %s = %v, want a positive number", what, name, v.Value))
					}
				}
			} else {
				bad = append(bad, sameMetrics(what, res.Metrics, sp.PerLayer)...)
			}
			cycles, want := meta.Meta.Cycles, cyclesPerRun
			if n := len(meta.Meta.Processes); n > 0 {
				want *= n
				for _, p := range meta.Meta.Processes {
					cycles += p.Cycles
				}
			}
			if wl == wlRecovery && cycles != want {
				bad = append(bad, fmt.Sprintf("%s: %d failure cycles, want %d", what, cycles, want))
			}
			if wl == wlPointRead && trace == "1" {
				if f := res.Metrics["trace.self_sum_frac"].Value; math.Abs(f-1) > 0.1 {
					bad = append(bad, fmt.Sprintf("%s: layer self times sum to %.3f of the wire-boundary median", what, f))
				}
				if f := res.Metrics["trace.overhead_frac"].Value; math.Abs(f) > maxTraceOverhead {
					bad = append(bad, fmt.Sprintf("%s: traced wire-boundary median is %+.3f off the untraced p50_us, want within %.2f", what, f, maxTraceOverhead))
				}
			}
			fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d\n%s\n", what, res.Attempted, res.Failed, indent(lines[len(lines)-1]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("self-test failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("self-test passed: every workload emitted every named metric with its unit and passed every check")
	return nil
}

func indent(line string) string {
	var b bytes.Buffer
	_ = json.Indent(&b, []byte(line), "  ", "  ")
	return "  " + b.String()
}

// sameMetrics compares emitted metrics with the declared ones.
func sameMetrics(what string, got map[string]metric, want []specMetric) []string {
	var bad []string
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		g, ok := got[w.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: %s missing", what, w.Name))
		case g.Unit != w.Unit:
			bad = append(bad, fmt.Sprintf("%s: %s in %q, declared %q", what, w.Name, g.Unit, w.Unit))
		}
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		bad = append(bad, fmt.Sprintf("%s: %s emitted but not declared", what, name))
	}
	return bad
}
