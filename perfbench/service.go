package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"warpsched/internal/analysis"
	"warpsched/internal/analysis/race"
	"warpsched/internal/exp"
	"warpsched/internal/isa"
	"warpsched/internal/kernels"
	"warpsched/internal/metrics"
	"warpsched/internal/server"
	"warpsched/internal/stats"
	"warpsched/internal/store"
)

// streamKernels are the quick kernels a new inline program is drawn
// from: those that run to completion from zeroed memory (inline
// programs carry no set-up) within 100k simulated cycles on every
// configuration the stream draws. TB, DS, ATM and HT hang or need
// millions of cycles without their inputs, and TSP and NW need over
// 200k, which would make a few misses dominate every percentile.
var streamKernels = []string{"ST", "KMEANS", "VECADD", "REDUCE", "MS", "HL", "STENCIL",
	"BFS", "HOTSPOT", "PATHFINDER", "BACKPROP", "SRAD", "LUD", "NN", "GAUSSIAN"}

const (
	// blockLen and one new program per block fix the hit share at 4/5.
	blockLen = 5
	// prefillRequests run on the first daemon incarnation, untimed.
	prefillRequests = 1500
	// requestsPerSecond sizes the measured phase: --seconds times this
	// many requests, about --seconds of work on the 2-core reference box.
	// A fixed request count keeps the daemon's memory (it retains every
	// job record) and the per-class sample counts independent of speed.
	requestsPerSecond = 900
	// phaseSegments splits a measured phase; the host-speed probe runs
	// between segments, while no request is in flight.
	phaseSegments = 5
	// verifySample is how many distinct timed-phase programs are re-run
	// directly on the engine and diffed against the daemon's results.
	verifySample = 24
	// admitSample bounds the direct admission-path calls timed per run.
	admitSample = 200
)

// streamItem is one request of the seeded stream. Of is the index of
// the request's first submission (itself for a new program).
type streamItem struct {
	Index int               `json:"i"`
	New   bool              `json:"new"`
	Of    int               `json:"of"`
	Req   server.JobRequest `json:"req"`
}

// stream generates the seeded request sequence on demand, in index
// order, so item i is the same whichever client takes it.
type stream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	kernels []*kernels.Kernel
	perm    []int // kernel order of the current round
	cperm   []int // configuration order of the current round
	firsts  []int // stream index of every new program, in order
	items   []streamItem
	used    map[string]bool
	newPos  int
}

func newStream(seed int64) (*stream, error) {
	byName := map[string]*kernels.Kernel{}
	for _, k := range append(kernels.QuickSyncSuite(), kernels.QuickSyncFreeSuite()...) {
		byName[k.Name] = k
	}
	s := &stream{rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}}
	for _, name := range streamKernels {
		k, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("stream: no quick kernel %q", name)
		}
		s.kernels = append(s.kernels, k)
	}
	return s, nil
}

// next returns the next request, or false once limit items exist.
func (s *stream) next(limit int) (streamItem, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.items)
	if n >= limit {
		return streamItem{}, false
	}
	if n%blockLen == 0 {
		s.newPos = s.rng.Intn(blockLen)
		if n == 0 {
			s.newPos = 0 // the first request has nothing to repeat
		}
	}
	var it streamItem
	if n%blockLen == s.newPos {
		it = streamItem{Index: n, New: true, Of: n, Req: s.newProgram()}
		s.firsts = append(s.firsts, n)
	} else {
		of := s.firsts[s.rng.Intn(len(s.firsts))]
		it = streamItem{Index: n, Of: of, Req: s.items[of].Req}
	}
	s.items = append(s.items, it)
	return it, true
}

// streamConfigs are the scheduler × BOWS mode × SM count combinations
// a new program is drawn from.
var streamConfigs = func() []server.JobConfig {
	var out []server.JobConfig
	for _, sched := range []string{"LRR", "GTO", "CAWA"} {
		for _, bows := range []string{"off", "ddos", "static"} {
			for sms := 1; sms <= 4; sms++ {
				out = append(out, server.JobConfig{Sched: sched, BOWS: bows, SMs: sms})
			}
		}
	}
	return out
}()

// newProgram draws a program never submitted before: the canonical
// assembly of a stream kernel at its registered geometry, with a seeded
// scheduler, BOWS mode, SM count and delay. Kernels and configurations
// each rotate through a fresh seeded order every round, so every stretch
// of the stream has the same mix of engine cost whatever the seed. The
// watchdog budget is drawn too; it keys the result without changing it,
// and a redraw on collision keeps every new program distinct.
func (s *stream) newProgram() server.JobRequest {
	n := len(s.firsts)
	if n%len(s.kernels) == 0 {
		s.perm = s.rng.Perm(len(s.kernels))
	}
	if n%len(streamConfigs) == 0 {
		s.cperm = s.rng.Perm(len(streamConfigs))
	}
	kern := s.kernels[s.perm[n%len(s.kernels)]]
	l := kern.Launch
	req := server.JobRequest{Source: l.Prog.Assembly(), Name: kern.Name, Wait: true,
		GridCTAs: l.GridCTAs, CTAThreads: l.CTAThreads, MemWords: l.MemWords, Params: l.Params,
		Config: streamConfigs[s.cperm[n%len(streamConfigs)]]}
	if req.Config.BOWS != "off" {
		d := int64(s.rng.Intn(1001))
		req.Config.Delay = &d
	}
	delay := int64(-1)
	if req.Config.Delay != nil {
		delay = *req.Config.Delay
	}
	for {
		req.Config.MaxCycles = 1_000_000 + s.rng.Int63n(9_000_000)
		id := fmt.Sprintf("%s|%s|%s|%d|%d|%d", kern.Name, req.Config.Sched, req.Config.BOWS,
			req.Config.SMs, delay, req.Config.MaxCycles)
		if !s.used[id] {
			s.used[id] = true
			return req
		}
	}
}

// daemon is one in-process warpsimd incarnation on a loopback listener.
type daemon struct {
	srv     *server.Server
	http    *http.Server
	base    string
	served  chan error
	stopped sync.Once
	stopErr error
}

func startDaemon(opt server.Options) (*daemon, error) {
	s, err := server.New(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{srv: s, http: &http.Server{Handler: s.Handler(), ReadHeaderTimeout: time.Minute},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and then the server down cleanly and waits
// for both. Only the first call does the work; later calls return its
// error, so error paths may defer it.
func (d *daemon) stop() error {
	d.stopped.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		herr := d.http.Shutdown(ctx)
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			herr = errors.Join(herr, err)
		}
		d.stopErr = errors.Join(herr, d.srv.Shutdown(ctx))
	})
	return d.stopErr
}

// clients is the closed-loop client pool: one connection each.
type clients struct {
	list       []*server.Client
	transports []*http.Transport
}

func newClients(base string, n int) *clients {
	c := &clients{}
	for i := 0; i < n; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		c.transports = append(c.transports, tr)
		c.list = append(c.list, server.NewClient(base, server.ClientOptions{
			HTTP: &http.Client{Timeout: 2 * time.Minute, Transport: tr}}))
	}
	return c
}

func (c *clients) retries() int64 {
	var n int64
	for _, cl := range c.list {
		n += cl.Retries()
	}
	return n
}

func (c *clients) close() {
	for _, tr := range c.transports {
		tr.CloseIdleConnections()
	}
}

// reqRec is one completed request as the client saw it.
type reqRec struct {
	item   streamItem
	lat    time.Duration
	status server.JobStatus
	err    error
}

// closedLoop sends the stream through every client, each sending its
// next request only after the previous reply, until the stream reaches
// limit. It returns the records and the wall time until the last reply.
func closedLoop(e *env, cs *clients, st *stream, limit int) ([]reqRec, time.Duration) {
	var mu sync.Mutex
	var recs []reqRec
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range cs.list {
		wg.Add(1)
		go func(cl *server.Client) {
			defer wg.Done()
			for {
				it, ok := st.next(limit)
				if !ok {
					return
				}
				r := reqRec{item: it}
				id := e.spans.begin("server.Client.Submit", fmt.Sprintf("r%d", it.Index))
				t0 := time.Now()
				r.status, r.err = cl.Submit(context.Background(), &it.Req)
				r.lat = time.Since(t0)
				e.spans.end(id)
				if r.err == nil && r.status.Err != "" {
					r.err = fmt.Errorf("job %s: %s", r.status.ID, r.status.Err)
				}
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// measuredPhase sends the next n requests of the stream in
// phaseSegments closed-loop segments with a host-speed probe after each,
// and summarizes them; the phase's wall time is the segments' sum.
func measuredPhase(e *env, o *outcome, cs *clients, st *stream, n int) *phaseStats {
	first := len(st.items) // no client is running between phases
	var recs []reqRec
	var wall time.Duration
	for k := 1; k <= phaseSegments; k++ {
		r, w := closedLoop(e, cs, st, first+k*n/phaseSegments)
		recs, wall = append(recs, r...), wall+w
		e.speed.sample()
	}
	return summarize(o, recs, wall)
}

// phaseStats summarizes one closed-loop phase.
type phaseStats struct {
	ok            int64
	hitMS, missMS []float64
	missKeys      []string
	// news are the phase's new programs, in stream order: a seed fixes
	// them, unlike the set of replies that ran the engine, which can
	// gain a re-submission that attached to its in-flight original.
	news             []reqRec
	wall             time.Duration
	jobsPerS         float64
	winstr           int64
	hitP50, hitP99   float64
	missP50, missP90 float64
	missMean         float64
}

// summarize counts failures into o and splits latencies by whether the
// daemon served the reply from a cache tier or ran the engine for it.
func summarize(o *outcome, recs []reqRec, wall time.Duration) *phaseStats {
	p := &phaseStats{wall: wall}
	sort.Slice(recs, func(i, j int) bool { return recs[i].item.Index < recs[j].item.Index })
	for _, r := range recs {
		o.attempted++
		if r.err != nil {
			o.fail("request %d: %v", r.item.Index, r.err)
			continue
		}
		p.ok++
		if r.item.New {
			p.news = append(p.news, r)
		}
		ms := float64(r.lat.Microseconds()) / 1e3
		if r.status.Cached {
			p.hitMS = append(p.hitMS, ms)
		} else {
			p.missMS = append(p.missMS, ms)
			p.missKeys = append(p.missKeys, r.status.Key)
		}
	}
	p.jobsPerS = float64(p.ok) / wall.Seconds()
	for _, ms := range p.missMS {
		p.missMean += ms / float64(len(p.missMS))
	}
	return p
}

// percentiles computes the per-class latency percentiles, failing the
// run when a class has too few samples for one of them.
func (p *phaseStats) percentiles() error {
	var errs []error
	pct := func(xs []float64, q float64, dst *float64, name string) {
		v, err := percentile(xs, q)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
		*dst = v
	}
	pct(p.hitMS, 0.50, &p.hitP50, "hit_p50_ms")
	pct(p.hitMS, 0.99, &p.hitP99, "hit_p99_ms")
	pct(p.missMS, 0.50, &p.missP50, "miss_p50_ms")
	pct(p.missMS, 0.90, &p.missP90, "miss_p90_ms")
	return errors.Join(errs...)
}

// fetchManifest reads one result manifest from the daemon.
func fetchManifest(cl *server.Client, key string) (*metrics.RunRecord, error) {
	data, err := cl.Result(context.Background(), key)
	if err != nil {
		return nil, fmt.Errorf("fetch result %s: %w", key, err)
	}
	var m metrics.Manifest
	if err := json.Unmarshal(data, &m); err != nil || len(m.Runs) != 1 {
		return nil, fmt.Errorf("result %s: bad manifest (%v, %d runs)", key, err, len(m.Runs))
	}
	return &m.Runs[0], nil
}

// engineInstrs sums the simulated warp instructions of the phase's
// engine runs from their result manifests (read after the phase). A
// submission that attached to an identical in-flight job shares its key
// and its engine run, so each key counts once.
func engineInstrs(o *outcome, cl *server.Client, p *phaseStats) {
	seen := map[string]bool{}
	for _, key := range p.missKeys {
		if seen[key] {
			continue
		}
		seen[key] = true
		rec, err := fetchManifest(cl, key)
		if err != nil {
			o.fail("%v", err)
			continue
		}
		for name, v := range rec.Counters {
			if stats.FoldCounterName(name) == "exec.warp_instrs" {
				p.winstr += v
			}
		}
	}
}

func runService(e *env) (*outcome, error) {
	o := newOutcome()
	st, err := newStream(e.seed)
	if err != nil {
		return nil, err
	}
	opt := server.Options{StoreDir: filepath.Join(e.work, "store"),
		Journal: filepath.Join(e.work, "journal.jsonl")}
	conns := runtime.NumCPU()

	// Prefill: the first incarnation serves the head of the stream and
	// shuts down cleanly, leaving a filled store and journal behind.
	d, err := startDaemon(opt)
	if err != nil {
		return nil, err
	}
	cs := newClients(d.base, conns)
	recs, wall := closedLoop(e, cs, st, prefillRequests)
	summarize(o, recs, wall)
	cs.close()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop prefill daemon: %w", err)
	}
	if e.trace {
		// The store's recovery scan on its own, while no daemon holds it.
		var serr error
		t0 := time.Now()
		e.spans.start("service/recover")
		e.spans.do("store.Open", "", func() { _, _, serr = store.Open(opt.StoreDir, store.Options{}) })
		e.spans.stop()
		if serr != nil {
			return nil, serr
		}
		o.perLayer["store.recover_s"] = time.Since(t0).Seconds()
	}

	// Restart to ready, repeated; the last incarnation serves the
	// measured phase.
	var walls []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		d, err = startDaemon(opt)
		if err != nil {
			return nil, fmt.Errorf("restart daemon: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	o.endToEnd["setup_s"] = median(walls)
	defer d.stop()
	cs = newClients(d.base, conns)
	defer cs.close()

	phaseLen := int(e.seconds.Seconds()) * requestsPerSecond
	p := measuredPhase(e, o, cs, st, phaseLen)
	if err := p.percentiles(); err != nil {
		return nil, err
	}
	engineInstrs(o, cs.list[0], p)
	o.endToEnd["jobs_per_s"] = p.jobsPerS
	o.endToEnd["sim_winstr_per_s"] = float64(p.winstr) / p.wall.Seconds()
	o.info["requests"] = p.ok
	o.info["hit_share"] = metricValue{ratio(int64(len(p.hitMS)), p.ok), "ratio"}
	o.info["hit_p50_ms"] = metricValue{p.hitP50, "ms"}
	o.info["hit_p99_ms"] = metricValue{p.hitP99, "ms"}
	o.info["miss_p50_ms"] = metricValue{p.missP50, "ms"}
	o.info["miss_p90_ms"] = metricValue{p.missP90, "ms"}
	o.info["hit_samples"] = len(p.hitMS)
	o.info["miss_samples"] = len(p.missMS)
	o.info["clients"] = conns

	sample := verifyService(e, o, cs.list[0], opt, p)
	if e.trace {
		if err := traceService(e, o, cs, st, opt, p, sample, phaseLen); err != nil {
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	return o, nil
}

// verifyService re-runs a seeded sample of the phase's new programs
// directly with exp.Cfg{Jobs: 1}.Execute and diffs cycles and the
// full counter snapshot against the daemon's stored result, as warpload
// -verify does. It returns the direct runs for the simulated counts.
func verifyService(e *env, o *outcome, cl *server.Client, opt server.Options, p *phaseStats) []simRun {
	rng := rand.New(rand.NewSource(e.seed))
	idx := rng.Perm(len(p.news))
	var runs []simRun
	for _, i := range idx[:min(verifySample, len(idx))] {
		it, key := p.news[i].item, p.news[i].status.Key
		o.attempted++
		spec, rerr := opt.Resolve(&it.Req)
		if rerr != nil {
			o.fail("verify request %d: resolve: %v", it.Index, rerr)
			continue
		}
		rec, err := fetchManifest(cl, key)
		if err != nil {
			o.fail("verify request %d: %v", it.Index, err)
			continue
		}
		out := exp.Cfg{Jobs: 1}.Execute([]exp.Spec{spec})[0]
		switch {
		case out.Err != nil:
			o.fail("verify request %d: direct run: %v", it.Index, out.Err)
		case out.Res.Stats.Cycles != rec.Cycles:
			o.fail("verify request %d: cycles %d direct, %d served", it.Index, out.Res.Stats.Cycles, rec.Cycles)
		case !reflect.DeepEqual(out.Res.Metrics.Counters, rec.Counters):
			o.fail("verify request %d: counter snapshots differ", it.Index)
		default:
			runs = append(runs, simRun{variant: exp.VariantHash(spec), cycles: out.Res.Stats.Cycles,
				counters: snapshotOf(out.Res), ffSkipped: out.Res.FFSkippedCycles})
		}
	}
	return runs
}

// traceService runs a second closed-loop phase of the same length under
// the profiler and spans, then times the admission path's public calls
// directly on that phase's new programs.
func traceService(e *env, o *outcome, cs *clients, st *stream, opt server.Options, untraced *phaseStats, sample []simRun, n int) error {
	cl := cs.list[0]
	before, err := cl.Stats(context.Background())
	if err != nil {
		return err
	}
	retries := cs.retries()
	var p *phaseStats
	prof, err := traced(e, func() error {
		p = measuredPhase(e, o, cs, st, n)
		return nil
	})
	if err != nil {
		return err
	}
	after, err := cl.Stats(context.Background())
	if err != nil {
		return err
	}
	m := o.perLayer
	prof.fill(m)

	var t simTotals
	var ff int64
	for _, r := range sample {
		t.add(r)
		ff += r.ffSkipped
	}
	t.fill(m)
	m["sim.ff_skip_frac"] = ratio(ff, t.cycles)
	runs := after.Jobs.EngineRuns - before.Jobs.EngineRuns
	subs := after.Jobs.Admitted + after.Jobs.Deduped - before.Jobs.Admitted - before.Jobs.Deduped
	m["exp.sims_submitted"] = float64(runs)
	m["exp.sims_distinct"] = float64(runs)
	m["exp.distinct_ratio"] = ratio(runs, runs)
	m["server.engine_runs"] = float64(runs)
	m["server.deduped"] = float64(after.Jobs.Deduped - before.Jobs.Deduped)
	m["server.hit_rate"] = 1 - ratio(runs, subs)
	m["server.engine_p50_ms"] = float64(after.ServiceUS.P50) / 1e3
	// The daemon's p50 is a bucket bound, so the overhead compares exact
	// means: client-side miss latency against engine service time.
	m["server.miss_overhead_ms"] = untraced.missMean - after.ServiceUS.MeanUS/1e3
	m["client.retries"] = float64(cs.retries() - retries)
	if after.Store != nil {
		m["store.entries"] = float64(after.Store.Entries)
	}
	// Disk hits happen early after the restart, in the untraced phase.
	m["store.disk_hits"] = float64(after.Jobs.DiskHits)
	m["store.persist_failed"] = float64(after.Jobs.PersistFailed - before.Jobs.PersistFailed)
	m["trace.overhead_s"] = (p.wall - untraced.wall).Seconds()

	// Admission path, timed call by call on the traced phase's new programs.
	var parse, analyze, raceUS, admit []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	e.spans.start("service/admission")
	defer e.spans.stop()
	for _, r := range p.news[:min(admitSample, len(p.news))] {
		it := r.item
		req := fmt.Sprintf("r%d", it.Index)
		var prog *isa.Program
		var perr error
		t0 := time.Now()
		e.spans.do("isa.Parse", req, func() { prog, perr = isa.Parse(it.Req.Name, it.Req.Source) })
		parse = append(parse, us(t0))
		if perr != nil {
			o.fail("request %d: parse: %v", it.Index, perr)
			continue
		}
		t0 = time.Now()
		e.spans.do("analysis.Analyze", req, func() { analysis.Analyze(prog) })
		analyze = append(analyze, us(t0))
		t0 = time.Now()
		e.spans.do("race.Analyze", req, func() {
			race.Analyze(prog, race.Options{GridCTAs: int32(it.Req.GridCTAs), CTAThreads: int32(it.Req.CTAThreads)})
		})
		raceUS = append(raceUS, us(t0))
		t0 = time.Now()
		e.spans.do("server.Options.Resolve", req, func() { _, _ = opt.Resolve(&it.Req) })
		admit = append(admit, us(t0))
	}
	for name, xs := range map[string][]float64{"isa.parse_us": parse, "analysis.analyze_us": analyze,
		"race.analyze_us": raceUS, "server.admit_us": admit} {
		v, err := percentile(xs, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = v
	}
	return nil
}
