package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// recorder collects one caller's op outcomes during a timed phase.
type recorder struct {
	start     time.Time // phase start; ops record completion offsets from it
	ops       []opSample
	attempted int
	failed    int
	sessions  int // member sessions joined (conference)
	errs      []error
}

// opSample is one successful op: when it completed and how long it took.
type opSample struct{ at, lat time.Duration }

// done records an op that started at begin.
func (r *recorder) done(begin time.Time, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 3 {
			r.errs = append(r.errs, err)
		}
		return
	}
	now := time.Now()
	r.ops = append(r.ops, opSample{at: now.Sub(r.start), lat: now.Sub(begin)})
}

// window is the length of the slices a timed phase is cut into (at
// least minWindows of them). Latency, throughput and CPU are computed
// per slice, and a run reports the figure of its best quarter of slices
// (the 25th percentile of the slices' latencies and CPU per op, the 75th
// of their throughputs). Interference from other tenants of a shared
// host only ever slows a slice, and it comes and goes over seconds, so
// the best quarter describes the program while up to three quarters of
// the run are disturbed. Allocation and peak RSS do not slow with
// interference; they are the median over all slices.
const (
	window     = 500 * time.Millisecond
	minWindows = 5
	bestShare  = 0.25
)

// printWindows makes runPhase print every window's figures to standard
// error, to see how a run's windows spread.
var printWindows bool

// phase is one timed closed-loop phase's measurements.
type phase struct {
	attempted, failed, sessions int
	lat                         []float64 // successful op latencies, ms, sorted
	wall                        time.Duration
	gcCPU                       float64 // seconds
	gcCycles                    float64
	goroutinesPeak              int
	// figures of the best quarter of the phase's windows; allocPerOp and
	// rssPeak (a window's peak resident set in bytes) are medians over
	// all windows
	p50, p90, opsPerS, cpuPerOpMS, allocPerOp, rssPeak float64
	windows                                            int
}

func (p phase) quantile(q float64) float64 { return quantile(p.lat, q) }

func (p phase) ops() float64 { return float64(max(p.attempted-p.failed, 1)) }

// mark is a reading of the process counters at a window's end.
type mark struct {
	at      time.Duration
	cpu     time.Duration
	rt      runtimeSample
	rssPeak int64 // highest resident set sampled in the window
}

// runPhase drives the fixture's callers in a closed loop for d: each
// caller starts rounds until the deadline and always finishes the round
// it is in. The heap is settled first; CPU, allocation and GC figures
// are deltas, RSS and goroutines are peaks of samples taken every 10ms.
func runPhase(fx fixture, d time.Duration, tr *tracer) phase {
	settleHeap()
	n := fx.callers()
	recs := make([]*recorder, n)
	windows := max(minWindows, int(d/window))
	start := time.Now()
	for i := range recs {
		recs[i] = &recorder{start: start}
	}
	marks := []mark{readMark(0, 0)}
	stopSampler := make(chan struct{})
	var rssPeak, gPeak int64 // over the current window, over the phase
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		next := d / time.Duration(windows)
		for {
			if rss := residentBytes(); rss > rssPeak {
				rssPeak = rss
			}
			if g := int64(runtime.NumGoroutine()); g > gPeak {
				gPeak = g
			}
			if at := time.Since(start); at >= next && len(marks) < windows {
				marks = append(marks, readMark(at, rssPeak))
				rssPeak = 0
				next += d / time.Duration(windows)
			}
			select {
			case <-stopSampler:
				return
			case <-t.C:
			}
		}
	}()

	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fx.round(c, recs[c], tr)
			}
		}(i)
	}
	wg.Wait()
	close(stopSampler)
	samplerWG.Wait()
	last := readMark(time.Since(start), max(rssPeak, residentBytes()))
	marks = append(marks, last)

	first := marks[0]
	ph := phase{wall: last.at, goroutinesPeak: int(gPeak),
		gcCPU: last.rt.gcCPU - first.rt.gcCPU, gcCycles: last.rt.gcCycles - first.rt.gcCycles}
	var all []opSample
	for _, r := range recs {
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.sessions += r.sessions
		all = append(all, r.ops...)
		for _, err := range r.errs {
			fmt.Fprintf(os.Stderr, "mmperf: op failed: %v\n", err)
		}
	}
	for _, o := range all {
		ph.lat = append(ph.lat, ms(o.lat))
	}
	sort.Float64s(ph.lat)

	// Per-window figures, then the best quarter's (see window).
	var p50s, p90s, rates, cpus, allocs, rss []float64
	for w := 1; w < len(marks); w++ {
		lo, hi := marks[w-1], marks[w]
		var lat []float64
		for _, o := range all {
			if o.at >= lo.at && (o.at < hi.at || w == len(marks)-1) {
				lat = append(lat, ms(o.lat))
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		k := float64(len(lat))
		p50s, p90s = append(p50s, quantile(lat, 0.5)), append(p90s, quantile(lat, 0.9))
		rates = append(rates, k/(hi.at-lo.at).Seconds())
		cpus = append(cpus, ms(hi.cpu-lo.cpu)/k)
		allocs = append(allocs, (hi.rt.alloc-lo.rt.alloc)/k)
		rss = append(rss, float64(hi.rssPeak))
	}
	if printWindows {
		for i := range p50s {
			fmt.Fprintf(os.Stderr, "window %2d: p50 %.4f ms, p90 %.4f ms, %.1f ops/s, cpu %.4f ms/op\n", i, p50s[i], p90s[i], rates[i], cpus[i])
		}
	}
	ph.windows = len(p50s)
	ph.p50, ph.p90 = quantileOf(p50s, bestShare), quantileOf(p90s, bestShare)
	ph.opsPerS, ph.cpuPerOpMS = quantileOf(rates, 1-bestShare), quantileOf(cpus, bestShare)
	ph.allocPerOp, ph.rssPeak = median(allocs), median(rss)
	return ph
}

// readMark reads the process counters at time at.
func readMark(at time.Duration, rssPeak int64) mark {
	return mark{at: at, cpu: processCPU(), rt: readRuntime(), rssPeak: rssPeak}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd derives the user-visible metrics from an untraced phase.
func endToEnd(ph phase, setupS float64) map[string]metric {
	return map[string]metric{
		"op_p50_ms":       {ph.p50, "ms"},
		"op_p90_ms":       {ph.p90, "ms"},
		"ops_per_s":       {ph.opsPerS, "ops/s"},
		"cpu_ms_per_op":   {ph.cpuPerOpMS, "ms"},
		"alloc_kb_per_op": {ph.allocPerOp / 1024, "KB"},
		"rss_peak_mb":     {ph.rssPeak / (1 << 20), "MB"},
		"setup_s":         {setupS, "s"},
	}
}

type runtimeSample struct{ alloc, gcCPU, gcCycles float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// processCPU is the process's user+system CPU time so far: client and
// server share the process, so this covers both sides of every op.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the process's resident set from /proc/self/statm.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks (0 for no values).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(vs []float64) float64 { return quantileOf(vs, 0.5) }

// quantileOf returns the q-quantile of unsorted values.
func quantileOf(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// checker holds the first output-check failure seen while ops run.
type checker struct {
	mu   sync.Mutex
	err  error
	seen int
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *checker) result() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return fmt.Errorf("%d check failure(s), first: %w", c.seen, c.err)
	}
	return nil
}
