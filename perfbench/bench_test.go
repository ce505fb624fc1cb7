package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"warpsched/internal/config"
	"warpsched/internal/exp"
	"warpsched/internal/server"
)

func genItems(t *testing.T, seed int64, n int) []streamItem {
	t.Helper()
	st, err := newStream(seed)
	if err != nil {
		t.Fatal(err)
	}
	var items []streamItem
	for {
		it, ok := st.next(n)
		if !ok {
			return items
		}
		items = append(items, it)
	}
}

func TestStreamIsByteIdenticalPerSeed(t *testing.T) {
	encode := func(items []streamItem) []byte {
		data, err := json.Marshal(items)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := encode(genItems(t, 7, 4000)), encode(genItems(t, 7, 4000))
	if !bytes.Equal(a, b) {
		t.Fatal("two streams from seed 7 differ")
	}
	if bytes.Equal(a, encode(genItems(t, 8, 4000))) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

func TestStreamFixesHitShareAndNeverRepeatsANewProgram(t *testing.T) {
	items := genItems(t, 3, 5000)
	seen := map[string]bool{}
	for b := 0; b < len(items); b += blockLen {
		news := 0
		for _, it := range items[b : b+blockLen] {
			if !it.New {
				if it.Of >= it.Index || !items[it.Of].New {
					t.Fatalf("request %d repeats %d, which is not an earlier new program", it.Index, it.Of)
				}
				continue
			}
			news++
			key, err := json.Marshal(it.Req)
			if err != nil {
				t.Fatal(err)
			}
			if seen[string(key)] {
				t.Fatalf("request %d repeats an earlier new program", it.Index)
			}
			seen[string(key)] = true
		}
		if news != 1 {
			t.Fatalf("block at %d has %d new programs, want 1", b, news)
		}
	}
}

// Every kernel the stream draws must run to completion from zeroed
// memory and pass admission on the extremes of the drawn configuration,
// so no service operation fails by construction.
func TestStreamKernelsRunFromZeroedMemory(t *testing.T) {
	st, err := newStream(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range st.kernels {
		for _, sms := range []int{1, 4} {
			for _, bows := range []string{"off", "ddos", "static"} {
				l := k.Launch
				delay := int64(1000)
				req := server.JobRequest{Source: l.Prog.Assembly(), Name: k.Name,
					GridCTAs: l.GridCTAs, CTAThreads: l.CTAThreads, MemWords: l.MemWords, Params: l.Params,
					Config: server.JobConfig{Sched: "CAWA", BOWS: bows, SMs: sms, Delay: &delay, MaxCycles: 1_000_000}}
				spec, rerr := server.Options{}.Resolve(&req)
				if rerr != nil {
					t.Fatalf("%s: admission: %v", k.Name, rerr)
				}
				out := exp.Cfg{Jobs: 1}.Execute([]exp.Spec{spec})[0]
				if out.Err != nil {
					t.Fatalf("%s sms=%d bows=%s: %v", k.Name, sms, bows, out.Err)
				}
				if out.Res.Stats.Cycles > 100_000 {
					t.Errorf("%s sms=%d bows=%s: %d cycles, want at most 100k", k.Name, sms, bows, out.Res.Stats.Cycles)
				}
			}
		}
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndBenchmarkFileAgree(t *testing.T) {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		seen := map[string]bool{}
		for _, d := range defs {
			if !namePattern.MatchString(d.name) || !unitPattern.MatchString(d.unit) {
				t.Errorf("metric %q unit %q: bad name or unit", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEndMetrics)
	same("per_layer", bench.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
}

// The sweeps must stay engine benchmarks: apart from the 24 fig2
// variants that fig9 submits again, no spec repeats, so a result cache
// that outlived one exp.Cfg could not serve a sweep from memory.
func TestSweepsSubmitNoSpecTwiceExceptFig2InFig9(t *testing.T) {
	ref, err := loadReference("..")
	if err != nil {
		t.Fatal(err)
	}
	count := func(specs []exp.Spec) map[string]int {
		n := map[string]int{}
		for _, sp := range specs {
			v := exp.VariantHash(sp)
			if _, ok := ref.Runs[v]; !ok {
				t.Errorf("variant %s (%s %s) is not in the reference", v, sp.Kernel.Name, sp.Sched)
			}
			n[v]++
		}
		return n
	}
	syncSpecs := syncSweepSpecs()
	sync := count(syncSpecs)
	if len(syncSpecs) != 72 || len(sync) != 48 {
		t.Fatalf("sync sweep: %d specs, %d distinct; want 72 and 48", len(syncSpecs), len(sync))
	}
	for i, sp := range syncSpecs {
		want := 1
		if i < 24 || sp.BOWS.Mode == config.BOWSOff {
			want = 2 // fig2's variants, and fig9's BOWS-off columns that repeat them
		}
		if got := sync[exp.VariantHash(sp)]; got != want {
			t.Errorf("sync spec %d (%s %s): submitted %d times, want %d", i, sp.Kernel.Name, sp.Sched, got, want)
		}
	}
	free := count(syncFreeSweepSpecs())
	if len(free) != 392 {
		t.Fatalf("sync-free sweep: %d distinct specs, want 392 (14 configs x 14 kernels x 2 machines)", len(free))
	}
	for v, n := range free {
		if n != 1 || sync[v] > 0 {
			t.Errorf("sync-free variant %s submitted %d times (%d in the sync sweep)", v, n, sync[v])
		}
	}
	if len(ref.Runs) != len(sync)+len(free) {
		t.Errorf("reference holds %d variants, the sweeps %d", len(ref.Runs), len(sync)+len(free))
	}
}

// Runs through exp.Cfg.Execute and runs recorded in an experiment
// manifest must produce the same snapshot form for one reference.
func TestExecuteSnapshotMatchesManifestReference(t *testing.T) {
	ref, err := loadReference("..")
	if err != nil {
		t.Fatal(err)
	}
	var st exp.Spec
	for _, sp := range syncSweepSpecs() {
		if sp.Kernel.Name == "ST" {
			st = sp
			break
		}
	}
	if err := ref.check(executeOne(st, exp.VariantHash(st))); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true}, {19, 0.5, 0, false},
		{100, 0.9, 90, true}, {99, 0.9, 0, false},
		{1000, 0.99, 990, true}, {999, 0.99, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("p%g of %d: got %v, %v; want %v, ok=%v", 100*c.q, c.n, got, err, c.want, c.ok)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"warpsched/internal/sim.New.Wrap.func2":           "warpsched/internal/sim",
		"warpsched/internal/analysis/race.Analyze":        "warpsched/internal/analysis/race",
		"net/http.(*conn).serve":                          "net/http",
		"runtime.mallocgc":                                "runtime",
		"warpsched/internal/sched.(*GTO).Pick":            "warpsched/internal/sched",
		"encoding/json.(*decodeState).object":             "encoding/json",
		"warpsched/internal/server.(*Server).Submit.func": "warpsched/internal/server",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

//go:noinline
func spin(until time.Time) (n int) {
	for time.Now().Before(until) {
		n++
	}
	return n
}

func TestReadProfileFindsLeafFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var frames []string
	for _, s := range p.samples {
		total += s.nanos
		for _, fn := range s.stack {
			if fn == "warpsched/perfbench.spin" {
				frames = append(frames, fn)
			}
		}
	}
	if total < int64(100*time.Millisecond) || len(frames) == 0 {
		t.Fatalf("profile has %v of samples and %d spin frames", time.Duration(total), len(frames))
	}
}
