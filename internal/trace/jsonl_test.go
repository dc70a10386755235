package trace

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
)

func TestJSONLWriterStickyFlushError(t *testing.T) {
	w := NewJSONLWriter(&failAfter{n: 0})
	w.Emit(Event{T: 1, Type: EvProbe})
	if err := w.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("flush err = %v, want %v", err, errDiskFull)
	}
	if err := w.Err(); !errors.Is(err, errDiskFull) {
		t.Errorf("Err() = %v, want sticky %v", err, errDiskFull)
	}
	before := w.Count()
	w.Emit(Event{T: 2, Type: EvProbe}) // must not encode into a dead writer
	if w.Count() != before {
		t.Errorf("count advanced to %d after a failed flush", w.Count())
	}
	if err := w.Close(); !errors.Is(err, errDiskFull) {
		t.Errorf("close err = %v, want the sticky error", err)
	}
}

// TestJSONLWriterConcurrentEmit: four goroutines share one writer; every
// event arrives, and each goroutine's events in the order it emitted them.
func TestJSONLWriterConcurrentEmit(t *testing.T) {
	const workers, per = 4, 10_000
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	var wg sync.WaitGroup
	for g := 1; g <= workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Emit(Event{T: int64(i), Type: EvMsgSend, Node: ids.ID(g), Kind: "k"})
				if i%2500 == 0 {
					_ = w.Count() // a drain racing the other emitters
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*per || w.Count() != workers*per {
		t.Fatalf("read %d lines, count %d, want %d", len(events), w.Count(), workers*per)
	}
	next := make(map[ids.ID]int64)
	for _, e := range events {
		if e.T != next[e.Node] {
			t.Fatalf("goroutine %d: event %d arrived where %d was due", e.Node, e.T, next[e.Node])
		}
		next[e.Node]++
	}
}

// TestJSONLWriterLifecycle: a writer that never fills a batch starts no
// encoder; Close stops the one a full batch starts, a second Close is safe,
// and events emitted after Close are still encoded, on the caller's
// goroutine.
func TestJSONLWriterLifecycle(t *testing.T) {
	e := Event{T: 1, Type: EvMsgSend, Node: 7, Kind: "k"}

	small := NewJSONLWriter(&bytes.Buffer{})
	for i := 0; i < jsonlBatch-1; i++ {
		small.Emit(e)
	}
	if small.started {
		t.Error("a writer short of one batch started its encoder")
	}
	if err := small.Close(); err != nil || small.Count() != jsonlBatch-1 {
		t.Errorf("close = %v, count %d", err, small.Count())
	}

	before := runtime.NumGoroutine()
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for i := 0; i < 3*jsonlBatch+1; i++ {
		w.Emit(e)
	}
	if !w.started {
		t.Fatal("three full batches started no encoder")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The encoder has signalled its exit; wait until it is gone.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the writer", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
	if err := w.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
	for len(w.empty) > 0 { // the encoder's batches come back cleared
		b := <-w.empty
		for _, e := range b[:cap(b)] {
			if e != (Event{}) {
				t.Fatalf("a returned batch still holds %v", e)
			}
		}
	}
	for i := 0; i < 2*jsonlBatch; i++ {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil || w.Count() != 5*jsonlBatch+1 {
		t.Errorf("after close: flush = %v, count %d, want %d", err, w.Count(), 5*jsonlBatch+1)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 5*jsonlBatch+1 {
		t.Errorf("%d lines written, want %d", lines, 5*jsonlBatch+1)
	}
	if runtime.NumGoroutine() > before {
		t.Errorf("emitting after Close started a goroutine")
	}
}
