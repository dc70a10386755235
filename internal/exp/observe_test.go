package exp

// Lifecycle coverage for SetupObservability's -pprof server: bind errors
// surface to the caller, the endpoints answer while the harness runs, and
// the cleanup func shuts the listener down instead of leaking it.

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"
)

// freePort grabs an ephemeral port and releases it, so the test can hand
// SetupObservability a concrete address.
func freePort(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

func TestSetupObservabilityPprofLifecycle(t *testing.T) {
	addr := freePort(t)
	_, cleanup, err := SetupObservability("", "round", addr, "")
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	url := fmt.Sprintf("http://%s/debug/pprof/cmdline", addr)
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		cleanup()
		t.Fatalf("pprof endpoint never answered: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cleanup()
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}

	cleanup()
	// After cleanup the port must be free again — the server was shut
	// down, not leaked into the background.
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port still held after cleanup: %v", err)
	}
	lis.Close()
}

func TestSetupObservabilityPprofBindErrorSurfaces(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if _, _, err := SetupObservability("", "round", lis.Addr().String(), ""); err == nil {
		t.Fatal("expected a bind error for an occupied port")
	}
}

// TestSetupObservabilityUnwindsOnError: a failure after servers are already
// listening must shut them down — every error return runs the cleanup
// accumulated so far.
func TestSetupObservabilityUnwindsOnError(t *testing.T) {
	for _, tc := range []struct{ name, traceFile, level string }{
		{"bad trace level", filepath.Join(t.TempDir(), "t.jsonl"), "verbose"},
		{"unwritable trace file", filepath.Join(t.TempDir(), "no-such-dir", "t.jsonl"), "round"},
	} {
		pprofAddr, listenAddr := freePort(t), freePort(t)
		if _, _, err := SetupObservability(tc.traceFile, tc.level, pprofAddr, listenAddr); err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		for _, addr := range []string{pprofAddr, listenAddr} {
			lis, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("%s: port %s still held after the failed setup: %v", tc.name, addr, err)
			}
			lis.Close()
		}
	}
}
