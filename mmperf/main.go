// Command mmperf is the repository's end-to-end benchmark. It runs one
// workload against the real program in a single process — an in-process
// interaction server (or a three-node cluster harness) on loopback TCP,
// driven through the public client API — checks the program's outputs
// against computations made apart from it, and prints its metrics.
//
//	mmperf --workload choice-fanout --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run is split into an untraced
// and a traced half, spans are recorded around every layer call the
// benchmark makes, and the metrics are the per-layer ones. --spread N
// instead runs every workload N times (one process per run, seeds
// seed..seed+N-1) and prints each end-to-end metric's spread against the
// bound BENCHMARK.json gives it. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median, so one slow start does not decide it.
const setups = 3

// workload is one named traffic mix: setup builds its fixture (inputs,
// program instances, joins, warm-up) from the seed. Why each workload
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name  string
	setup func(env *env) (fixture, error)
}

var workloads = []workload{
	{"choice-fanout", setupFanout},
	{"media-miss", setupMedia},
	{"conference", setupConference},
	{"cluster-relay", setupRelay},
}

// env is what a workload's setup receives: its seed, a private scratch
// directory, and the per-run parameters.
type env struct {
	seed    int64
	dir     string
	seconds float64
}

// fixture is a set-up workload ready to be driven.
type fixture interface {
	// callers is the number of closed-loop callers (at most nproc).
	callers() int
	// round runs one whole round of the workload's ops for a caller,
	// reporting each op to rec. Rounds are the unit a timed phase stops
	// at, so every run attempts whole rounds.
	round(caller int, rec *recorder, tr *tracer)
	// verify runs the end-of-run output checks; per-op checks report
	// through the fixture's checker while the run goes.
	verify() error
	// counters returns the cumulative counters of every layer (sys.stats
	// counters summed over servers, cluster.Node.Metrics, ...).
	counters() counters
	// summaries returns sys.stats method summaries by metric key.
	summaries() map[string]float64
	// probe times direct calls into single layers, recording spans.
	probe(tr *tracer) error
	close()
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		data    = flag.String("data", ".bench_build", "directory for stores, spans and scratch files")
		spread  = flag.Int("spread", 0, "run every workload (or --workload) this many times and print each metric's spread")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the timed phase to this file")
	)
	flag.BoolVar(&printWindows, "windows", false, "print every window's latency, throughput and CPU to standard error")
	flag.Parse()
	if *spread > 0 {
		return spreadMode(*spread, *name, *seed, *seconds, *data)
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "mmperf: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "mmperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir := filepath.Join(*data, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "mmperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// The last of the set-ups is the fixture measured.
	var fx fixture
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		e := &env{seed: *seed, dir: filepath.Join(dir, fmt.Sprintf("setup-%d", i)), seconds: *seconds}
		f, err := wl.setup(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmperf: %s setup: %v\n", wl.name, err)
			return 1
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			f.close()
			continue
		}
		fx = f
	}
	defer fx.close()
	setupS := median(setupTimes)

	timed := time.Duration(*seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmperf: %v\n", err)
			return 1
		}
		defer stop()
	}
	if *trace == 0 {
		ph := runPhase(fx, timed, nil)
		res.Attempted, res.Failed = ph.attempted, ph.failed
		res.Correct = report(wl.name, fx, ph)
		for k, v := range endToEnd(ph, setupS) {
			res.Metrics[k] = v
		}
	} else {
		base := runPhase(fx, timed/2, nil)
		before := fx.counters()
		tr := newTracer()
		ph := runPhase(fx, timed/2, tr)
		after := fx.counters()
		res.Attempted, res.Failed = base.attempted+ph.attempted, base.failed+ph.failed
		res.Correct = report(wl.name, fx, ph)
		if err := fx.probe(tr); err != nil {
			fmt.Fprintf(os.Stderr, "mmperf: %s probes: %v\n", wl.name, err)
			res.Correct = false
		}
		layers := perLayer(ph, before, after, fx.summaries(), tr)
		layers["trace.overhead_pct"] = metric{100 * (ph.p50 - base.p50) / base.p50, "%"}
		res.Metrics = layers
		fmt.Printf("tracing overhead: op p50 %.4f ms untraced, %.4f ms traced (%+.2f%%); cpu/op %.4f vs %.4f ms\n",
			base.p50, ph.p50, layers["trace.overhead_pct"].Value, base.cpuPerOpMS, ph.cpuPerOpMS)
		path := filepath.Join(*data, fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "mmperf: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		}
	}
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmperf: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// report prints a phase's op counts and runs the fixture's output checks.
func report(name string, fx fixture, ph phase) bool {
	fmt.Printf("workload %s: ops attempted %d, failed %d, in %.3f s by %d callers; p99 %.4f ms\n",
		name, ph.attempted, ph.failed, ph.wall.Seconds(), fx.callers(), ph.quantile(0.99))
	fmt.Printf("windows: %d of %v; latency, throughput and CPU from the best quarter\n", ph.windows, window)
	if err := fx.verify(); err != nil {
		fmt.Printf("output check FAILED: %v\n", err)
		return false
	}
	fmt.Println("output checks passed")
	return true
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// settleHeap collects garbage and returns freed memory to the OS so the
// timed phase starts from the same heap state on every run.
func settleHeap() { debug.FreeOSMemory() }

func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
