package main

import "time"

// The host this benchmark runs on is a shared VM whose CPU speed drifts
// by up to ±25% over minutes: identical sweep passes took 23 s or 33 s
// within five minutes. The drift is common to all CPU-bound work, so the
// run times a fixed probe, independent of the simulator, about once a
// second between simulations (between closed-loop segments for the
// service) and reports its time-based end-to-end metrics at the probe's
// reference speed. On 10 s windows the probe and a sync-free sweep chunk
// correlated at 0.95, and rescaling cut the chunk's spread from 0.165 to
// 0.048. Raw wall-clock figures and the slowdown are printed alongside.

const (
	// probeIters sizes one probe at about 30 ms.
	probeIters = 2_000_000
	// probeRef is one probe's duration on the 2-core reference box when
	// idle; it fixes the scale of the normalized metrics only.
	probeRef = 0.030
	// probeEvery is the least wall time between two probes.
	probeEvery = time.Second
)

// probeBuf is the probe's working set, allocated once so the probe
// never triggers a garbage collection.
var probeBuf = make([]uint32, 1<<18)

var probeSink uint32

// probeWork is a fixed, deterministic mix of dependent arithmetic,
// data-dependent branches and random reads and writes over 1 MiB — the
// kind of work the simulator's hot loops do.
//
//go:noinline
func probeWork() {
	x := uint32(2463534242)
	var acc uint32
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (1<<18 - 1)
		v := probeBuf[j]
		switch v & 3 {
		case 0:
			acc += v
		case 1:
			acc ^= x
		case 2:
			probeBuf[j] = acc
		default:
			acc -= j
		}
		probeBuf[j] += x
	}
	probeSink = acc
}

// speedProbe samples the host's current speed. It is used from one
// goroutine at a time.
type speedProbe struct {
	times []float64
	spent time.Duration // total probe time, excluded from measured walls
	last  time.Time
}

// sample runs the probe once.
func (p *speedProbe) sample() {
	t0 := time.Now()
	probeWork()
	d := time.Since(t0)
	p.times = append(p.times, d.Seconds())
	p.spent += d
	p.last = time.Now()
}

// tick samples when probeEvery has passed since the last sample.
func (p *speedProbe) tick() {
	if time.Since(p.last) >= probeEvery {
		p.sample()
	}
}

// slowdown is the median probe time over the reference: above 1 the
// host ran slower than the reference box.
func (p *speedProbe) slowdown() float64 { return median(p.times) / probeRef }

// normalize rescales the run's raw time-based end-to-end metrics to the
// reference speed, keeping the raw values on the informational line.
func normalize(o *outcome, p *speedProbe) {
	s := p.slowdown()
	o.info["host_slowdown"] = s
	o.info["probes"] = len(p.times)
	for _, name := range []string{"sim_winstr_per_s", "jobs_per_s"} {
		o.info["raw_"+name] = o.endToEnd[name]
		o.endToEnd[name] *= s
	}
	o.info["raw_setup_s"] = o.endToEnd["setup_s"]
	o.endToEnd["setup_s"] /= s
}
