package trace

// The reference model of the JSONL writer: the synchronous writer that
// encoded every event on Emit's goroutine, kept verbatim so that the
// batching writer can be held to it byte for byte, count for count and
// error for error.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ids"
)

type refJSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // underlying closer, if any
	n   int64
	err error
}

func newRefJSONLWriter(w io.Writer) *refJSONLWriter {
	j := &refJSONLWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

func (j *refJSONLWriter) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		j.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(e.Value, 'g', -1, 64)}
		return
	}
	if j.w.Available() < maxPlainEvent+len(e.Kind)+len(e.Aux) {
		if j.err = j.w.Flush(); j.err != nil {
			return
		}
	}
	if _, j.err = j.w.Write(appendEvent(j.w.AvailableBuffer(), e)); j.err == nil {
		j.n++
	}
}

func (j *refJSONLWriter) Count() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

func (j *refJSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *refJSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	return nil
}

func (j *refJSONLWriter) Close() error {
	err := j.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// failAfter keeps what it is given until the first write that would take
// it past n bytes; that write and every later one fail.
type failAfter struct {
	n   int
	out bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.out.Len()+len(p) > f.n {
		return 0, errDiskFull
	}
	return f.out.Write(p)
}

// hugeAux is longer than the writer's 64 KiB buffer.
var hugeAux = strings.Repeat("loop ", 14000)

// runWriterScript drives a JSONLWriter and the reference with the same
// operations, each picked by one byte of script, into two destinations
// that fail after limit bytes, and fails t at the first operation after
// which their bytes, Count or Err differ. Event contents come from seed.
// Both writers are closed at the end.
func runWriterScript(t *testing.T, seed int64, limit int, script []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gotDst, wantDst := &failAfter{n: limit}, &failAfter{n: limit}
	got, want := NewJSONLWriter(gotDst), newRefJSONLWriter(wantDst)
	defer got.Close()
	next := int64(0)
	event := func() Event {
		next++
		return Event{
			T: next, Type: EventType(rng.Intn(len(eventNames))),
			Node: ids.ID(rng.Uint64()), Peer: ids.ID(rng.Uint64() >> uint(rng.Intn(64))),
			Kind:  edgeStrings[rng.Intn(len(edgeStrings))],
			Value: float64(rng.Intn(1000)) / 8,
		}
	}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	both := func(e Event) { got.Emit(e); want.Emit(e) }
	burst := func(n int, bad bool) {
		at := rng.Intn(n)
		for i := 0; i < n; i++ {
			e := event()
			if bad && i == at {
				e.Value = nonFinite[rng.Intn(len(nonFinite))]
			}
			both(e)
		}
	}
	sameErr := func(op string, g, w error) {
		if fmt.Sprint(g) != fmt.Sprint(w) || errors.Is(g, errDiskFull) != errors.Is(w, errDiskFull) {
			t.Fatalf("%s: err = %v, reference %v", op, g, w)
		}
	}
	for i, b := range script {
		var op string
		switch b % 8 {
		case 0, 1, 2: // up to four batches
			op = "emit burst"
			burst(1+int(b)*8, false)
		case 3:
			op = "emit non-finite in a burst"
			burst(1+int(b)*2, true)
		case 4:
			op = "emit oversize"
			e := event()
			e.Aux = hugeAux[:len(hugeAux)-rng.Intn(64)]
			both(e)
		case 5:
			op = "flush"
			sameErr(op, got.Flush(), want.Flush())
		case 6:
			op = "close"
			sameErr(op, got.Close(), want.Close())
		case 7:
			op = "err"
		}
		op = fmt.Sprintf("op %d (%s)", i, op)
		if g, w := got.Count(), want.Count(); g != w {
			t.Fatalf("%s: count = %d, reference %d", op, g, w)
		}
		sameErr(op, got.Err(), want.Err())
		if !bytes.Equal(gotDst.out.Bytes(), wantDst.out.Bytes()) {
			t.Fatalf("%s: wrote %d bytes, reference %d, and they differ", op, gotDst.out.Len(), wantDst.out.Len())
		}
	}
	sameErr("final close", got.Close(), want.Close())
	if !bytes.Equal(gotDst.out.Bytes(), wantDst.out.Bytes()) {
		t.Fatalf("after close: wrote %d bytes, reference %d, and they differ", gotDst.out.Len(), wantDst.out.Len())
	}
}

// TestJSONLWriterMatchesReference runs random scripts against destinations
// that never fail and that fail after a random number of bytes.
func TestJSONLWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 300; s++ {
		script := make([]byte, 1+rng.Intn(24))
		rng.Read(script)
		limit := math.MaxInt
		if s%2 == 1 {
			limit = rng.Intn(400_000)
		}
		runWriterScript(t, int64(s), limit, script)
	}
}

func FuzzJSONLWriterScript(f *testing.F) {
	f.Add(int64(1), uint32(math.MaxUint32), []byte{0xf8, 0xf8, 0x05, 0x0b, 0x04, 0x06, 0x00, 0x07})
	f.Add(int64(2), uint32(70_000), []byte{0x40, 0x04, 0x05, 0x04, 0x10, 0x05})
	f.Add(int64(3), uint32(0), []byte{0x08, 0x05, 0x07})
	f.Add(int64(4), uint32(1<<20), []byte{0xfb, 0x00, 0x06, 0x06, 0xf8, 0x05, 0x06})
	f.Fuzz(func(t *testing.T, seed int64, limit uint32, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		runWriterScript(t, seed, int(limit), script)
	})
}
