package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Every mode the three former tools served: ssrsim's own, convergence's
// round-model sweeps, and figures.
var (
	formerSsrsim = []string{"compare", "breakdown", "route", "occupancy", "closure", "vrr", "churn", "teardown",
		"mobility", "loopy", "boot", "chaos", "reliability"}
	formerConvergence = []string{"powerlaw", "shape", "state", "stabilize", "scheduler", "degree", "diameter"}
)

func TestModeTable(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range modes {
		if seen[m.name] {
			t.Errorf("mode %q listed twice", m.name)
		}
		seen[m.name] = true
		if m.id == "" || m.about == "" || m.run == nil {
			t.Errorf("mode %q: incomplete row %+v", m.name, m)
		}
		if !strings.Contains(modeHelp(), "\n  "+m.name+" ") {
			t.Errorf("mode %q missing from the -mode help", m.name)
		}
	}
	for _, name := range append(append([]string{"figures"}, formerConvergence...), formerSsrsim...) {
		if !seen[name] {
			t.Errorf("mode %q of the former CLIs is gone", name)
		}
	}
	if len(seen) != 1+len(formerConvergence)+len(formerSsrsim) {
		t.Errorf("%d modes in the table, former CLIs had %d: extend this test with the new one", len(seen), 1+len(formerConvergence)+len(formerSsrsim))
	}

	// Defaults are the old tools': convergence ran at -n 200 -sizes
	// 100,200,400,800, ssrsim (and figures, which took neither flag) at
	// -n 24 -sizes 16,24,32.
	for _, name := range formerConvergence {
		if m := findMode(name); m.n != 200 || m.sizes != "100,200,400,800" {
			t.Errorf("round-model mode %q defaults = %+v", name, m.defaults)
		}
	}
	for _, name := range append([]string{"figures"}, formerSsrsim...) {
		if m := findMode(name); m.n != 24 || m.sizes != "16,24,32" {
			t.Errorf("mode %q defaults = %+v", name, m.defaults)
		}
	}
}

// stdoutOf runs ssrsim with args and returns what it printed on stdout.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("ssrsim %v: exit %d\n%s", args, code, &stderr)
	}
	return stdout.String()
}

// TestModesReproduceCommittedResults runs every mode that has a committed
// results/*.txt or BENCH_*.json end to end and holds it to the artifact
// byte for byte: the flags here are the flags the artifact was made with
// (EXPERIMENTS.md and the Makefile quote the same commands); a .json
// artifact is the record the mode writes to -out, a .txt one its stdout.
// Each mode is a parallel subtest with its own Harness and its own output.
func TestModesReproduceCommittedResults(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
		slow bool // a minute plain, past the test timeout under -race
	}{
		{"figures.txt", []string{"-mode", "figures", "-fig", "0"}, false},
		{"a1_scheduler.txt", []string{"-mode", "scheduler"}, false}, // n=200, 3 seeds
		{"a2_teardown.txt", []string{"-mode", "teardown"}, false},
		{"b1_degree.txt", []string{"-mode", "degree", "-seeds", "2"}, false},
		{"b2_diameter.txt", []string{"-mode", "diameter", "-n", "100", "-seeds", "2"}, false},
		{"e1b_loopy.txt", []string{"-mode", "loopy"}, true},
		{"e4_powerlaw.txt", []string{"-mode", "powerlaw", "-sizes", "1000,10000,50000,100000", "-seeds", "3"}, true},
		{"e5_shape.txt", []string{"-mode", "shape", "-sizes", "100,200,400,800,1600"}, false},
		{"e6_msgcost.txt", []string{"-mode", "compare", "-sizes", "16,32,64,128"}, false}, // floodboot, isprp, ssr
		{"e6b_breakdown.txt", []string{"-mode", "breakdown", "-n", "64"}, false},
		{"e7_routing.txt", []string{"-mode", "route", "-n", "32", "-pairs", "400"}, false},
		{"e8_state.txt", []string{"-mode", "state", "-sizes", "100,200,400,800"}, false},
		{"e8b_occupancy.txt", []string{"-mode", "occupancy", "-n", "64"}, false},
		{"e9_stabilize.txt", []string{"-mode", "stabilize", "-n", "300", "-seeds", "5"}, false},
		{"e9b_churn.txt", []string{"-mode", "churn", "-n", "40", "-kill", "5"}, false},
		{"e10_closure.txt", []string{"-mode", "closure", "-n", "32"}, false},
		{"e11_vrr.txt", []string{"-mode", "vrr", "-n", "32"}, false}, // vrr and ssr with CloseRing
		{"e12_mobility.txt", []string{"-mode", "mobility", "-n", "24"}, false},
		{"BENCH_chaos.json", []string{"-mode", "chaos", "-n", "24", "-seed", "1"}, false},
		{"BENCH_reliability.json", []string{"-mode", "reliability", "-n", "24", "-seed", "1"}, false},
	} {
		t.Run(tc.file, func(t *testing.T) {
			if tc.slow && (raceEnabled || testing.Short()) {
				t.Skip("a minute plain, past the test timeout under -race")
			}
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var got string
			if filepath.Ext(tc.file) == ".json" {
				out := filepath.Join(t.TempDir(), tc.file)
				stdoutOf(t, append(tc.args, "-out", out)...)
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				got = string(b)
			} else {
				got = stdoutOf(t, tc.args...)
			}
			if got != string(want) {
				t.Errorf("ssrsim %v drifted from results/%s:\n%s", tc.args, tc.file, got)
			}
		})
	}
}

// TestHarnessFlagsReachEveryMode: -trace, the executor flags and -transport
// are the harness's, not a mode's. Every mode builds its engines, networks
// and round-model runs through internal/exp's one constructor and runLin,
// so the modes that used to build their own see the flags too.
func TestHarnessFlagsReachEveryMode(t *testing.T) {
	// The flag defaults, and a parse of the executor flags and -sizes into
	// the Harness and the size list.
	t.Run("defaults", func(t *testing.T) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := bind(fs)
		if err := fs.Parse([]string{"-workers", "3", "-shards", "8", "-sizes", "40,50"}); err != nil {
			t.Fatal(err)
		}
		if *c.mode != "compare" || *c.n != 24 || c.topology() != graph.TopoER {
			t.Errorf("defaults: mode=%q n=%d topo=%q", *c.mode, *c.n, c.topology())
		}
		sizes, err := parseSizes(*c.sizes)
		if err != nil || !reflect.DeepEqual(sizes, []int{40, 50}) {
			t.Errorf("sizes = %v, %v", sizes, err)
		}
		cleanup, err := c.setup()
		if err != nil {
			t.Fatal(err)
		}
		if err := cleanup(); err != nil {
			t.Fatal(err)
		}
		want := exp.Harness{Transport: exp.TransportRaw, Exec: sim.ExecutorConfig{Workers: 3, Shards: 8, Partition: "contiguous"}}
		if c.h != want {
			t.Errorf("harness = %+v, want %+v", c.h, want)
		}
	})

	traceOf := func(args ...string) string {
		t.Helper()
		file := filepath.Join(t.TempDir(), "t.jsonl")
		stdoutOf(t, append(args, "-trace", file)...)
		out, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if traceOf("-mode", "degree", "-seeds", "1", "-trace-level", "round") == "" {
		t.Error("-mode degree wrote an empty round-level trace")
	}

	// -mode loopy at its smallest size (the mode runs 15, 63 and 255).
	file := filepath.Join(t.TempDir(), "loopy.jsonl")
	tr, cleanup, err := exp.SetupObservability(file, "msg", "", "")
	if err != nil {
		t.Fatal(err)
	}
	exp.Harness{Tracer: tr}.ScaledLoopy([]int{15}, 2, 1)
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	if out, err := os.ReadFile(file); err != nil || len(out) == 0 {
		t.Errorf("-mode loopy wrote an empty msg-level trace (err %v)", err)
	}

	// The reliable sublayer carries a mode that used to run raw whatever
	// the flag said. On a loss-free network it moves no protocol frame and
	// no consistency instant, so E10's columns are the raw run's; the
	// sublayer shows in the trace and in a table that counts every frame.
	closure := []string{"-mode", "closure", "-n", "16", "-transport", "reliable"}
	if out := stdoutOf(t, closure...); strings.Count(out, "3/3") != 2 {
		t.Errorf("ssrsim %v: want both rows converged 3/3:\n%s", closure, out)
	}
	if !strings.Contains(traceOf(append(closure, "-trace-level", "msg")...), `"kind":"rel:ack"`) {
		t.Errorf("ssrsim %v: no rel:ack frame in the trace", closure)
	}
	raw := stdoutOf(t, "-mode", "teardown", "-n", "16")
	if rel := stdoutOf(t, "-mode", "teardown", "-n", "16", "-transport", "reliable"); rel == raw || strings.Count(rel, "3/3") != 2 {
		t.Errorf("-mode teardown -transport reliable: want 3/3 twice and more frames than the raw run:\n%s", rel)
	}
}

// TestConcurrentRunsShareNoHarness runs a raw and a traced reliable
// closure run at the same time: each prints exactly its serial output and
// the trace holds the serial trace's bytes, so the two runs share no
// harness state (under -race, no memory either).
func TestConcurrentRunsShareNoHarness(t *testing.T) {
	dir := t.TempDir()
	argv := func(trace string) [2][]string {
		return [2][]string{
			{"-mode", "closure", "-n", "16"},
			{"-mode", "closure", "-n", "16", "-transport", "reliable", "-trace", filepath.Join(dir, trace), "-trace-level", "msg"},
		}
	}
	var want, got [2]string
	for i, args := range argv("serial.jsonl") {
		want[i] = stdoutOf(t, args...)
	}
	var codes [2]int
	var wg sync.WaitGroup
	for i, args := range argv("concurrent.jsonl") {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stdout bytes.Buffer
			codes[i] = run(args, &stdout, io.Discard)
			got[i] = stdout.String()
		}()
	}
	wg.Wait()
	for i, args := range argv("concurrent.jsonl") {
		if codes[i] != 0 || got[i] != want[i] {
			t.Errorf("ssrsim %v beside another run: exit %d, printed\n%s\nwant\n%s", args, codes[i], got[i], want[i])
		}
	}
	serial, err := os.ReadFile(filepath.Join(dir, "serial.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if concurrent, err := os.ReadFile(filepath.Join(dir, "concurrent.jsonl")); err != nil || len(serial) == 0 || !bytes.Equal(concurrent, serial) {
		t.Errorf("the concurrent run's trace differs from the serial one's (%d vs %d bytes, err %v)", len(concurrent), len(serial), err)
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes(" 100, 200,300 ")
	if err != nil || !reflect.DeepEqual(got, []int{100, 200, 300}) {
		t.Fatalf("parseSizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "10,-2", "10,,20"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) should fail", bad)
		}
	}
}

func TestExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nonesuch"},
		{"-mode", "figures", "-fig", "7"},
		{"-mode", "shape", "-sizes", "10,x"},
		{"-mode", "boot", "-proto", "nonesuch"},
		{"-mode", "loopy", "-trace-level", "verbose", "-trace", filepath.Join(t.TempDir(), "t.jsonl")},
		{"-no-such-flag"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("ssrsim %v: exit %d, want 2", args, code)
		}
	}

	// The mode succeeds, its trace does not reach the disk: still exit 2.
	t.Run("lost trace", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full to stand in for a full disk")
		}
		args := []string{"-mode", "boot", "-n", "16", "-trace", "/dev/full", "-trace-level", "msg"}
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("ssrsim %v: exit %d, want 2", args, code)
		}
	})
}
