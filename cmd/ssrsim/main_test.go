package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
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

// stdoutOf runs ssrsim with args and returns what it printed.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = old
	f.Close()
	if code != 0 {
		t.Fatalf("ssrsim %v: exit %d", args, code)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestModesReproduceCommittedResults runs every mode that has a committed
// results/*.txt end to end and holds it to the artifact byte for byte: the
// flags here are the flags the artifact was made with (EXPERIMENTS.md
// quotes the same commands).
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
	} {
		if tc.slow && (raceEnabled || testing.Short()) {
			continue
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := stdoutOf(t, tc.args...); got != string(want) {
			t.Errorf("ssrsim %v drifted from results/%s:\n%s", tc.args, tc.file, got)
		}
	}
}

// TestHarnessFlagsReachEveryMode: -trace, the executor flags and -transport
// are the harness's, not a mode's. Every mode builds its engines, networks
// and round-model runs through internal/exp's one constructor and runLin,
// so the modes that used to build their own see the flags too.
func TestHarnessFlagsReachEveryMode(t *testing.T) {
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
	cleanup, err := exp.SetupObservability(file, "msg", "", "")
	if err != nil {
		t.Fatal(err)
	}
	exp.ScaledLoopy([]int{15}, 2, 1)
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

func TestExitCodes(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	old := os.Stderr
	os.Stderr = devnull
	defer func() { os.Stderr = old }()
	for _, args := range [][]string{
		{"-mode", "nonesuch"},
		{"-mode", "figures", "-fig", "7"},
		{"-mode", "shape", "-sizes", "10,x"},
		{"-mode", "boot", "-proto", "nonesuch"},
		{"-mode", "loopy", "-trace-level", "verbose", "-trace", filepath.Join(t.TempDir(), "t.jsonl")},
		{"-no-such-flag"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("ssrsim %v: exit %d, want 2", args, code)
		}
	}

	// The mode succeeds, its trace does not reach the disk: still exit 2.
	t.Run("lost trace", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full to stand in for a full disk")
		}
		oldOut := os.Stdout
		os.Stdout = devnull
		defer func() { os.Stdout = oldOut }()
		args := []string{"-mode", "boot", "-n", "16", "-trace", "/dev/full", "-trace-level", "msg"}
		if code := run(args); code != 2 {
			t.Errorf("ssrsim %v: exit %d, want 2", args, code)
		}
	})
}
