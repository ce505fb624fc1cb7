package main

import (
	"path/filepath"
	"runtime"
	"time"

	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/sim"
	"warpsched/internal/stats"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median, so one slow repetition cannot move it.
const setupRepeats = 15

// syncExps are the registry experiments of the sync sweep, in run order.
var syncExps = []string{"fig2", "fig9"}

// syncSweepSpecs lists the simulations the sync sweep submits, in the
// order fig2 and then fig9 (ExecEnergy on the quick Fermi) submit them.
// The benchmark uses it to cross-check the experiments' manifests and to
// re-run the distinct variants for the fast-forward counters.
func syncSweepSpecs() []exp.Spec {
	gpu := config.GTX480().Scaled(2)
	suite := kernels.QuickSyncSuite()
	off := config.BOWS{Mode: config.BOWSOff}
	var specs []exp.Spec
	for _, k := range suite {
		for _, s := range config.Schedulers {
			specs = append(specs, exp.Spec{GPU: gpu, Sched: s, BOWS: off, DDOS: config.DefaultDDOS(), Kernel: k})
		}
	}
	for _, k := range suite {
		for _, s := range config.Schedulers {
			for _, b := range []config.BOWS{off, config.DefaultBOWS()} {
				specs = append(specs, exp.Spec{GPU: gpu, Sched: s, BOWS: b, DDOS: config.DefaultDDOS(), Kernel: k})
			}
		}
	}
	return specs
}

// syncFreeSweepSpecs lists the false-detection study: every distinct
// Table I DDOS configuration × the full-scale sync-free suite × both
// Table II machines (scaled as a non-quick exp.Cfg scales them), all
// under GTO+BOWS.
func syncFreeSweepSpecs() []exp.Spec {
	suite := kernels.SyncFreeSuite()
	var ddos []config.DDOS
	seen := map[string]bool{}
	for _, sec := range exp.Table1Layout() {
		for _, sp := range sec.Specs {
			if !seen[sp.DDOS.Desc()] {
				seen[sp.DDOS.Desc()] = true
				ddos = append(ddos, sp.DDOS)
			}
		}
	}
	var specs []exp.Spec
	for _, gpu := range []config.GPU{config.GTX480().Scaled(4), config.GTX1080Ti().Scaled(7)} {
		for _, d := range ddos {
			for _, k := range suite {
				specs = append(specs, exp.Spec{GPU: gpu, Sched: config.GTO, BOWS: config.DefaultBOWS(), DDOS: d, Kernel: k})
			}
		}
	}
	return specs
}

// simRun is one finished simulation as the benchmark checks it.
type simRun struct {
	variant   string
	cycles    int64
	counters  map[string]int64
	err       string
	engine    time.Duration
	ffSkipped int64
}

// passResult is one pass over a sweep.
type passResult struct {
	runs          []simRun
	wall          time.Duration
	manifestWrite time.Duration
}

// timeSetup runs build setupRepeats times, each from a freshly collected
// heap, and returns the median wall time in seconds together with the
// last build's result.
func timeSetup[T any](build func() T) (float64, T) {
	var walls []float64
	var v T
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		v = build()
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), v
}

func runSyncSweep(e *env) (*outcome, error) {
	o := newOutcome()
	setup, specs := timeSetup(syncSweepSpecs)
	o.endToEnd["setup_s"] = setup
	ref, err := loadReference(e.root)
	if err != nil {
		return nil, err
	}
	pass := func() (passResult, error) { return syncPass(e) }
	traced, err := measureSweep(e, o, ref, pass)
	if err != nil || !e.trace {
		return o, err
	}
	o.perLayer["exp.manifest_write_s"] = traced.manifestWrite.Seconds()

	// The experiments return manifests, not engine results, so the
	// fast-forward counters come from re-running each distinct variant
	// once through the exported path; the re-runs are checked too.
	subs := map[string]int64{}
	for _, r := range traced.runs {
		subs[r.variant]++
	}
	var ff, cycles int64
	done := map[string]bool{}
	for _, sp := range specs {
		v := exp.VariantHash(sp)
		if done[v] {
			continue
		}
		done[v] = true
		r := executeOne(sp, v)
		o.attempted++
		if err := ref.check(r); err != nil {
			o.fail("%v", err)
		}
		ff += subs[v] * r.ffSkipped
		cycles += subs[v] * r.cycles
	}
	o.perLayer["sim.ff_skip_frac"] = ratio(ff, cycles)
	return o, nil
}

// syncPass runs fig2 then fig9 serially with a manifest collector on
// and writes the manifest, as cmd/experiments -exp fig2|fig9 -quick -j 1
// -stats-json does.
func syncPass(e *env) (passResult, error) {
	var p passResult
	col := exp.NewCollector("experiments", map[string]any{"quick": true, "sms": 0})
	start, probed := time.Now(), e.speed.spent
	for _, name := range syncExps {
		ex, err := exp.ByName(name)
		if err != nil {
			return p, err
		}
		// Progress runs after each simulation, between engine runs.
		cfg := exp.Cfg{Quick: true, Jobs: 1, Collect: col, Exp: name,
			Progress: func(string) { e.speed.tick() }}
		var runErr error
		e.spans.do("exp.Experiment.Run/"+name, "", func() { _, runErr = ex.Run(cfg) })
		if runErr != nil {
			// Failed simulations also land in the manifest with Err set
			// and are counted there; log the experiment-level error.
			logf("%s: %v", name, runErr)
		}
	}
	m := col.Manifest()
	m.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	var werr error
	t0 := time.Now()
	e.spans.do("metrics.Manifest.WriteFile", "", func() {
		werr = m.WriteFile(filepath.Join(e.work, "sync-sweep-manifest.json"))
	})
	p.manifestWrite = time.Since(t0)
	p.wall = time.Since(start) - (e.speed.spent - probed)
	if werr != nil {
		return p, werr
	}
	for _, r := range m.Runs {
		p.runs = append(p.runs, runFromRecord(r))
	}
	return p, nil
}

func runFromRecord(r metrics.RunRecord) simRun {
	return simRun{variant: r.Variant, cycles: r.Cycles, counters: r.Counters, err: r.Err,
		engine: time.Duration(r.WallMS * float64(time.Millisecond))}
}

func runSyncFreeSweep(e *env) (*outcome, error) {
	o := newOutcome()
	type prepared struct {
		specs    []exp.Spec
		variants []string
	}
	setup, prep := timeSetup(func() prepared {
		specs := syncFreeSweepSpecs()
		vs := make([]string, len(specs))
		for i, sp := range specs {
			vs[i] = exp.VariantHash(sp)
		}
		return prepared{specs, vs}
	})
	o.endToEnd["setup_s"] = setup
	ref, err := loadReference(e.root)
	if err != nil {
		return nil, err
	}
	pass := func() (passResult, error) {
		var p passResult
		start, probed := time.Now(), e.speed.spent
		for i, sp := range prep.specs {
			e.speed.tick()
			var r simRun
			e.spans.do("exp.Cfg.Execute", prep.variants[i], func() { r = executeOne(sp, prep.variants[i]) })
			p.runs = append(p.runs, r)
		}
		p.wall = time.Since(start) - (e.speed.spent - probed)
		return p, nil
	}
	traced, err := measureSweep(e, o, ref, pass)
	if err != nil || !e.trace {
		return o, err
	}
	var ff, cycles int64
	for _, r := range traced.runs {
		ff += r.ffSkipped
		cycles += r.cycles
	}
	o.perLayer["sim.ff_skip_frac"] = ratio(ff, cycles)
	return o, nil
}

// executeOne runs one spec through the harness's exported serial path,
// the call warpsimd's workers make.
func executeOne(sp exp.Spec, variant string) simRun {
	t0 := time.Now()
	out := exp.Cfg{Jobs: 1}.Execute([]exp.Spec{sp})[0]
	r := simRun{variant: variant, engine: time.Since(t0)}
	if out.Err != nil {
		r.err = out.Err.Error()
	}
	if out.Res != nil {
		r.cycles = out.Res.Stats.Cycles
		r.counters = snapshotOf(out.Res)
		r.ffSkipped = out.Res.FFSkippedCycles
	}
	return r
}

// measureSweep runs untraced passes until the budget is spent and
// reports the end-to-end rates over their total wall time. A traced
// run then makes one more pass under the CPU profile and spans and
// fills the per-layer metrics from it; that pass is returned.
func measureSweep(e *env, o *outcome, ref *reference, pass func() (passResult, error)) (passResult, error) {
	var walls []float64
	var runs []simRun
	start, probed := time.Now(), e.speed.spent
	for {
		p, err := pass()
		if err != nil {
			return p, err
		}
		walls = append(walls, p.wall.Seconds())
		runs = append(runs, p.runs...)
		if time.Since(start) >= e.seconds {
			break
		}
	}
	total := (time.Since(start) - (e.speed.spent - probed)).Seconds()
	var winstr int64
	for _, r := range runs {
		winstr += r.counters["exec.warp_instrs"]
		o.attempted++
		if err := ref.check(r); err != nil {
			o.fail("%v", err)
		}
	}
	o.endToEnd["sim_winstr_per_s"] = float64(winstr) / total
	o.endToEnd["jobs_per_s"] = float64(len(runs)) / total
	o.info["passes"] = len(walls)
	o.info["pass_wall_s"] = walls
	if !e.trace {
		return passResult{}, nil
	}

	var p passResult
	prof, err := traced(e, func() error {
		var err error
		p, err = pass()
		return err
	})
	if err != nil {
		return p, err
	}
	prof.fill(o.perLayer)
	var t simTotals
	var engine time.Duration
	for _, r := range p.runs {
		o.attempted++
		if err := ref.check(r); err != nil {
			o.fail("%v", err)
		}
		t.add(r)
		engine += r.engine
	}
	t.fill(o.perLayer)
	o.perLayer["exp.outside_engine_s"] = (p.wall - engine).Seconds()
	o.perLayer["trace.overhead_s"] = p.wall.Seconds() - median(walls)
	return p, nil
}

// simTotals sums the simulated counters of a set of runs.
type simTotals struct {
	sims     int64
	distinct map[string]bool
	cycles   int64
	c        map[string]int64
}

func (t *simTotals) add(r simRun) {
	if t.c == nil {
		t.c, t.distinct = map[string]int64{}, map[string]bool{}
	}
	t.sims++
	t.distinct[r.variant] = true
	t.cycles += r.cycles
	for k, v := range r.counters {
		t.c[k] += v
	}
}

// fill writes the simulated per-layer counts and the ratios derived from
// them. Every value here is a function of simulated behaviour only.
func (t *simTotals) fill(m map[string]float64) {
	c := t.c
	m["exp.sims_submitted"] = float64(t.sims)
	m["exp.sims_distinct"] = float64(len(t.distinct))
	m["exp.distinct_ratio"] = ratio(int64(len(t.distinct)), t.sims)
	m["sim.cycles"] = float64(t.cycles)
	m["sim.warp_instrs"] = float64(c["exec.warp_instrs"])
	m["sim.issue_frac"] = ratio(c["sched.issue_cycles"], c["sched.issue_cycles"]+c["sched.idle_cycles"])
	m["simt.simd_eff"] = ratio(c["exec.active_lane_sum"], 32*c["exec.warp_instrs"])
	m["sched.stall_warp_cycles"] = float64(c["sched.stall_warp_cycles"])
	m["core.sib_frac"] = ratio(c["exec.sib_instrs"], c["exec.warp_instrs"])
	m["core.true_sibs"] = float64(c["ddos.true_sibs_detected"])
	m["core.false_sibs"] = float64(c["ddos.false_sibs_detected"])
	m["core.backoff_blocks"] = float64(c["sched.backoff_blocks"])
	m["mem.l1_hit_rate"] = ratio(c["mem.l1_hits"], c["mem.l1_accesses"])
	m["mem.l2_hit_rate"] = ratio(c["mem.l2_hits"], c["mem.l2_accesses"])
	m["mem.dram_accesses"] = float64(c["mem.dram_accesses"])
	m["mem.atom_retry_ratio"] = ratio(c["mem.atom_retries"], c["mem.atomic_ops"])
	m["mem.mshr_stalls"] = float64(c["mem.mshr_stalls"])
}

// snapshotOf folds an engine result's per-SM counters into machine
// totals with the detection counts added, the same form experiment
// manifests record (internal/exp buildRecord), so results from either
// path compare against one reference.
func snapshotOf(res *sim.Result) map[string]int64 {
	out := map[string]int64{}
	if res.Metrics != nil {
		for name, v := range res.Metrics.Counters {
			if name != "engine.cycles" {
				out[stats.FoldCounterName(name)] += v
			}
		}
	}
	if d := res.Detection; d.TrueSeen > 0 || d.FalseSeen > 0 {
		out["ddos.true_sibs_seen"] = int64(d.TrueSeen)
		out["ddos.true_sibs_detected"] = int64(d.TrueDetected)
		out["ddos.false_sibs_seen"] = int64(d.FalseSeen)
		out["ddos.false_sibs_detected"] = int64(d.FalseDetected)
	}
	return out
}
