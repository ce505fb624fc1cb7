package main

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one service
// request share Req; Parent is the id of the enclosing span (0 = none).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory until the run ends. It records nothing
// outside a phase opened with start, so untraced measurement pays one
// uncontended lock per call. Every span's parent is the open phase.
type spanLog struct {
	mu     sync.Mutex
	on     bool
	parent int64
	t0     time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a phase span and records spans under it until stop.
func (l *spanLog) start(phase string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on = true
	l.parent = 0
	l.parent = l.open(phase, "")
}

// stop closes the open phase.
func (l *spanLog) stop() {
	l.end(l.parent)
	l.mu.Lock()
	l.on, l.parent = false, 0
	l.mu.Unlock()
}

func (l *spanLog) open(name, req string) int64 {
	l.spans = append(l.spans, span{ID: int64(len(l.spans) + 1), Parent: l.parent, Name: name,
		Req: req, Start: time.Since(l.t0).Seconds()})
	return int64(len(l.spans))
}

// begin opens a span and returns its id, or 0 outside a phase.
func (l *spanLog) begin(name, req string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return 0
	}
	return l.open(name, req)
}

// end closes the span begin returned.
func (l *spanLog) end(id int64) {
	if id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = time.Since(l.t0).Seconds()
	l.mu.Unlock()
}

// do runs f inside a span.
func (l *spanLog) do(name, req string, f func()) {
	id := l.begin(name, req)
	f()
	l.end(id)
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceStats is what a traced phase measures besides spans: CPU self
// time per layer from the profile, and Go heap activity.
type traceStats struct {
	self     map[string]float64
	allocMB  float64
	gcCycles uint32
}

func (t traceStats) fill(m map[string]float64) {
	for _, b := range selfBuckets {
		m[b.metric] = t.self[b.metric]
	}
	m["go.gc_self_s"] = t.self["go.gc_self_s"]
	m["go.alloc_mb"] = t.allocMB
	m["go.gc_cycles"] = float64(t.gcCycles)
}

// traced runs f under the CPU profiler with spans enabled. The profile
// is kept under the build directory for inspection with go tool pprof.
func traced(e *env, f func() error) (traceStats, error) {
	var t traceStats
	dir := filepath.Join(e.root, buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return t, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.pprof", e.workload, e.seed))
	file, err := os.Create(path)
	if err != nil {
		return t, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return t, err
	}
	e.spans.start(e.workload + "/traced")
	ferr := f()
	e.spans.stop()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err := file.Close(); err != nil {
		return t, err
	}
	if ferr != nil {
		return t, ferr
	}
	t.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.gcCycles = m1.NumGC - m0.NumGC
	t.self, err = profileSelf(path)
	return t, err
}

// selfBuckets maps a package import path to the metric its self time
// is reported under. A closure belongs to the package that defines it.
var selfBuckets = []struct{ pkg, metric string }{
	{"warpsched/internal/exp", "exp.self_s"},
	{"warpsched/internal/sim", "sim.self_s"},
	{"warpsched/internal/simt", "simt.self_s"},
	{"warpsched/internal/sched", "sched.self_s"},
	{"warpsched/internal/core", "core.self_s"},
	{"warpsched/internal/mem", "mem.self_s"},
	{"warpsched/internal/kernels", "kernels.self_s"},
	{"warpsched/internal/isa", "isa.self_s"},
	{"warpsched/internal/analysis", "analysis.self_s"},
	{"warpsched/internal/analysis/race", "race.self_s"},
	{"warpsched/internal/server", "server.self_s"},
	{"warpsched/internal/store", "store.self_s"},
	{"net/http", "nethttp.self_s"},
	{"encoding/json", "json.self_s"},
}

// gcRoots are the runtime entry points of garbage-collection work; a
// sample with one of them on its stack counts toward go.gc_self_s.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true,
}

// funcPackage returns the import path of a symbol name such as
// "warpsched/internal/sim.(*Engine).Run.func1".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// profileSelf buckets a CPU profile's samples by the package of their
// leaf frame (the innermost inlined function) and returns seconds per
// metric.
func profileSelf(path string) (map[string]float64, error) {
	p, err := readProfile(path)
	if err != nil {
		return nil, fmt.Errorf("read profile %s: %w", path, err)
	}
	metricOf := map[string]string{}
	for _, b := range selfBuckets {
		metricOf[b.pkg] = b.metric
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		secs := float64(s.nanos) / 1e9
		if len(s.stack) > 0 {
			if m, ok := metricOf[funcPackage(s.stack[0])]; ok {
				out[m] += secs
			}
		}
		for _, fn := range s.stack {
			if gcRoots[fn] {
				out["go.gc_self_s"] += secs
				break
			}
		}
	}
	return out, nil
}

// profile is the part of a pprof CPU profile the benchmark reads: per
// sample, the CPU nanoseconds and the stack as function names, leaf
// first with inlined frames expanded.
type profile struct {
	samples []profSample
}

type profSample struct {
	nanos int64
	stack []string
}

// readProfile decodes a gzipped profile.proto written by runtime/pprof.
// Only the fields needed for self time are decoded: samples, locations,
// functions and the string table.
func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1:
					s.locs = pbUints(s.locs, wire, v, b)
				case 2:
					for _, u := range pbUints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(field, wire int, v uint64, _ []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(field, wire int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("sample without a cpu value")
		}
		ps := profSample{nanos: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message, calling f with the
// field number, wire type, varint value and length-delimited bytes.
func pbFields(b []byte, f func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated varint field in either packed or unpacked
// encoding.
func pbUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := pbVarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
