package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"warpsched/internal/metrics"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload's untraced run. They
// are the figures a user of the simulator sees, and each is defined on
// all three workloads (see NOTES.md for the per-workload meaning).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"sim_winstr_per_s", "winstr/s"},
	{"jobs_per_s", "jobs/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics are reported by every workload's traced run; a layer
// the workload does not exercise reads 0. Simulated counts (cycles,
// instructions, memory events, detector outcomes) are exact: they are
// totals over one pass of a fixed workload whose every result is
// checked against the frozen reference.
var perLayerMetrics = []metricDef{
	{"exp.self_s", "s"},
	{"exp.sims_submitted", "count"},
	{"exp.sims_distinct", "count"},
	{"exp.distinct_ratio", "ratio"},
	{"exp.outside_engine_s", "s"},
	{"exp.manifest_write_s", "s"},

	{"sim.self_s", "s"},
	{"sim.cycles", "count"},
	{"sim.warp_instrs", "count"},
	{"sim.ff_skip_frac", "ratio"},
	{"sim.issue_frac", "ratio"},

	{"simt.self_s", "s"},
	{"simt.simd_eff", "ratio"},

	{"sched.self_s", "s"},
	{"sched.stall_warp_cycles", "count"},

	{"core.self_s", "s"},
	{"core.sib_frac", "ratio"},
	{"core.true_sibs", "count"},
	{"core.false_sibs", "count"},
	{"core.backoff_blocks", "count"},

	{"mem.self_s", "s"},
	{"mem.l1_hit_rate", "ratio"},
	{"mem.l2_hit_rate", "ratio"},
	{"mem.dram_accesses", "count"},
	{"mem.atom_retry_ratio", "ratio"},
	{"mem.mshr_stalls", "count"},

	{"kernels.self_s", "s"},

	{"isa.self_s", "s"},
	{"isa.parse_us", "us"},
	{"analysis.self_s", "s"},
	{"analysis.analyze_us", "us"},
	{"race.self_s", "s"},
	{"race.analyze_us", "us"},
	{"server.admit_us", "us"},

	{"server.self_s", "s"},
	{"nethttp.self_s", "s"},
	{"json.self_s", "s"},
	{"server.hit_rate", "ratio"},
	{"server.engine_runs", "count"},
	{"server.deduped", "count"},
	{"server.engine_p50_ms", "ms"},
	{"server.miss_overhead_ms", "ms"},
	{"client.retries", "count"},

	{"store.self_s", "s"},
	{"store.recover_s", "s"},
	{"store.entries", "count"},
	{"store.disk_hits", "count"},
	{"store.persist_failed", "count"},

	{"go.gc_self_s", "s"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},

	{"trace.overhead_s", "s"},
}

// hostFacts identifies the machine and build a result came from, so
// results stay comparable across boxes.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_rev":    metrics.GitRev(),
	}
}

// minBeyond is how many samples must lie above a reported percentile;
// with fewer, the percentile is one or two outliers and not a statistic.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs. It fails when
// fewer than minBeyond samples lie above the chosen rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n == 0 || n-1-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*q, n, max(n-1-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// median returns the middle value of xs (mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// logf writes a progress line to standard error; standard output is
// reserved for the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
