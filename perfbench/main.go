// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall-clock budget, checks every simulated result
// against a frozen reference (or, for the service, against direct
// engine re-runs), and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sync-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run additionally records a CPU profile and in-memory
// spans around the public calls it makes and reports per-layer metrics.
// NOTES.md explains the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workloads maps a workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"sync-sweep":     runSyncSweep,
	"syncfree-sweep": runSyncFreeSweep,
	"service":        runService,
}

// env is one benchmark invocation's inputs and scratch space.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// root is the checkout root; work is a per-run directory under
	// root/.bench_build that is removed when the run ends.
	root string
	work string
	// spans records layer-boundary spans; it is only enabled around the
	// traced phase of a --trace 1 run.
	spans *spanLog
	// speed samples the host's speed during the run (see probe.go).
	speed *speedProbe
}

// outcome is what a workload reports: counts of attempted and failed
// operations, the end-to-end metrics of the untraced measurement, the
// per-layer metrics of the traced run, and informational figures that
// are printed but not gated.
type outcome struct {
	attempted, failed int64
	endToEnd          map[string]float64
	perLayer          map[string]float64
	info              map[string]any
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{},
		info: map[string]any{}}
}

// fail counts one failed operation and logs why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sync-sweep, syncfree-sweep or service")
		seed     = flag.Int64("seed", 1, "workload seed (only the service stream uses it)")
		seconds  = flag.Int("seconds", 20, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		genRef   = flag.Bool("gen-ref", false, "regenerate perfbench/reference.json from one pass of both sweeps and exit")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *root, *genRef); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, root string, genRef bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if genRef {
		return generateReference(root)
	}
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return fmt.Errorf("make run directory: %w", err)
	}
	defer os.RemoveAll(work)
	e := &env{workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace == 1, root: root, work: work, spans: newSpanLog(), speed: &speedProbe{}}
	for i := 0; i < 3; i++ {
		e.speed.sample()
	}
	out, err := runner(e)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		e.speed.sample()
	}
	normalize(out, e.speed)
	out.endToEnd["peak_rss_mb"] = peakRSSMiB()
	if e.trace {
		if err := e.spans.write(filepath.Join(root, buildDir, "trace",
			fmt.Sprintf("%s-seed%d-spans.json", workload, seed))); err != nil {
			return err
		}
	}
	return printResult(os.Stdout, e, out)
}

// printResult writes an informational line (host facts, ungated
// figures) followed by the result line: correctness, operations
// attempted and failed, and the metrics of this run's kind.
func printResult(w io.Writer, e *env, out *outcome) error {
	failFrac := 0.0
	if out.attempted > 0 {
		failFrac = float64(out.failed) / float64(out.attempted)
	}
	out.info["fail_frac"] = metricValue{failFrac, "ratio"}
	info, err := json.Marshal(map[string]any{
		"workload": e.workload, "seed": e.seed, "seconds": e.seconds.Seconds(),
		"trace": e.trace, "host": hostFacts(), "info": out.info,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", info)

	defs, vals := endToEndMetrics, out.endToEnd
	if e.trace {
		defs, vals = perLayerMetrics, out.perLayer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

// metricValue is one reported figure with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		var rest string
		if n, _ := fmt.Sscanf(line, "VmHWM: %s", &rest); n == 1 {
			kb, _ = strconv.ParseFloat(rest, 64)
		}
	}
	return kb / 1024
}
