package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the spread mode reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreadMode runs every workload (or only the one named) n times, each in its own process with
// seeds seed..seed+n-1, and prints each end-to-end metric's median and
// quartile spread (as a share of the median) against its bound. It
// reads the workloads and bounds from BENCHMARK.json in the working
// directory.
func spreadMode(n int, only string, seed int64, seconds float64, data string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmperf: spread mode needs BENCHMARK.json: %v\n", err)
		return 1
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "mmperf: BENCHMARK.json: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmperf: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		var p99 []float64 // printed by each run, no bound
		failedShare := map[string]bool{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0", "--data", data)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmperf: %s seed %d: %v\n", w.Name, s, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "mmperf: %s seed %d: result line: %v\n", w.Name, s, err)
				return 1
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: output checks FAILED\n", w.Name, s)
				status = 1
			}
			for _, l := range lines {
				if _, tail, ok := bytes.Cut(l, []byte("; p99 ")); ok {
					if v, err := strconv.ParseFloat(string(bytes.Fields(tail)[0]), 64); err == nil {
						p99 = append(p99, v)
					}
				}
			}
			failedShare[strconv.FormatFloat(float64(res.Failed)/float64(max(res.Attempted, 1)), 'g', -1, 64)] = true
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Printf("%s seed %d: attempted %d failed %d", w.Name, s, res.Attempted, res.Failed)
			for _, m := range spec.EndToEnd {
				fmt.Printf(" %s=%.4g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
		if len(failedShare) > 1 {
			fmt.Printf("%s: failed/attempted differs between runs: %v\n", w.Name, failedShare)
		}
		q1, med, q3 := quartiles(p99)
		fmt.Printf("%-14s %-16s median %12.4f  IQR/median %6.2f%%  (no bound)\n", w.Name, "op_p99_ms", med, 100*(q3-q1)/med)
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			q1, med, q3 := quartiles(vs)
			share := 0.0
			if med != 0 {
				share = (q3 - q1) / med
			}
			verdict := "ok"
			if share > m.Bound {
				verdict = "OVER BOUND"
			} else if share > m.Bound/3 {
				verdict = "over a third of bound"
			}
			fmt.Printf("%-14s %-16s median %12.4f  IQR/median %6.2f%%  bound %5.1f%%  %s\n",
				w.Name, m.Name, med, 100*share, 100*m.Bound, verdict)
		}
	}
	return status
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) with its
// default exclusive method, plus the median.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), median(s), at(3)
}
