package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// child runs one workload once in a fresh process of this binary, so that
// peak_rss_mb is that run's own high-water mark, and returns its result.
// The child's metric listing goes to listing when that is non-nil.
func child(w string, seed int64, seconds float64, traced int, scale string, listing io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced),
		"-scale", scale,
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if listing != nil {
		fmt.Fprintln(listing, strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return res, fmt.Errorf("%s: no result (%v): %v", w, err, jerr)
	}
	return res, nil // a failed check exits 1 too; the caller reads res.Failed
}

func header() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": min(runtime.NumCPU(), 4),
		"go_version": runtime.Version(),
	}
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s\n", h["nproc"], h["gomaxprocs"], h["go_version"])
	return h
}

// runAll runs every workload, untraced then traced, and prints every metric
// by name with its unit. It returns the process's exit code: non-zero when
// any checked operation failed.
func runAll(seed int64, seconds float64, scale, outPath string) int {
	type passes struct {
		EndToEnd result `json:"end_to_end"`
		PerLayer result `json:"per_layer"`
	}
	out := map[string]any{"meta": header(), "seed": seed, "seconds": seconds, "scale": scale}
	byWorkload := map[string]passes{}
	failed := 0
	for _, w := range workloads {
		e2e, err := child(w.name, seed, seconds, 0, scale, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		layers, err := child(w.name, seed, seconds, 1, scale, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%-20s operations: untraced %d attempted, %d failed; traced %d attempted, %d failed\n\n",
			w.name, e2e.Attempted, e2e.Failed, layers.Attempted, layers.Failed)
		failed += e2e.Failed + layers.Failed
		byWorkload[w.name] = passes{e2e, layers}
	}
	out["workloads"] = byWorkload
	if outPath != "" {
		buf, _ := json.MarshalIndent(out, "", " ") // maps of numbers and strings
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// aaRuns is how many runs each set of runAA makes, as many as the
// acceptance procedure.
const aaRuns = 10

// runAA runs the untraced set twice, A and B alternating run by run, run i
// of either set on seed+i, and compares the sets the way a change is
// compared with its parent: per workload and end-to-end metric, both
// medians, how much worse B reads than A, and the spread of each set
// between its quartiles, all against the metric's bound. The program's own
// counts must agree exactly. It returns non-zero when a pair disagrees by
// more than its bound.
func runAA(ws []workload, seed int64, seconds float64, scale string) int {
	header()
	exit := 0
	for _, w := range ws {
		a, b := samples{}, samples{}
		for i := 0; i < aaRuns; i++ {
			for _, set := range []samples{a, b} {
				res, err := child(w.name, seed+int64(i), seconds, 0, scale, nil)
				if err != nil || res.Failed > 0 {
					fmt.Fprintf(os.Stderr, "%s seed %d: %d failed %v\n", w.name, seed+int64(i), res.Failed, err)
					return 1
				}
				for name, m := range res.Metrics {
					set[name] = append(set[name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			ma, mb := quantile(a[d.name], 0.5), quantile(b[d.name], 0.5)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			sa, sb := quartileSpread(a[d.name]), quartileSpread(b[d.name])
			verdict := "ok"
			if worse > d.bound || -worse > d.bound || sa > d.bound || sb > d.bound {
				verdict, exit = "OUT OF BOUND", 1
			}
			if d.exact && fmt.Sprint(a[d.name]) != fmt.Sprint(b[d.name]) { // %v of a float64 is exact
				verdict, exit = "NOT BIT-EQUAL", 1
			}
			fmt.Printf("%-20s %-16s A %-12.6g B %-12.6g B worse by %+6.2f%%  spread A %5.2f%% B %5.2f%%  bound %4.1f%%  %s\n",
				w.name, d.name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	return exit
}

// manifestJSON is BENCHMARK.json, made from the tables in metrics.go and the
// workload list; smoke_test.go holds the committed file to it.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, better(d), d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, better(d)})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(m) // plain strings and numbers into a buffer
	return buf.Bytes()
}
