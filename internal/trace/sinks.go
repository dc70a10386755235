package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// --- Recorder -------------------------------------------------------------

// Recorder is the in-memory sink for tests and interactive inspection: a
// ring buffer of the most recent events. The zero value records up to
// DefaultRecorderCap events; set Cap before first use to change it.
type Recorder struct {
	// Cap bounds the number of retained events (<=0: DefaultRecorderCap).
	Cap int

	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest retained event
	total   int64
	dropped int64
}

// DefaultRecorderCap is the retention bound of a zero-value Recorder.
const DefaultRecorderCap = 1 << 16

// Emit appends e, evicting the oldest event when full.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	capN := r.Cap
	if capN <= 0 {
		capN = DefaultRecorderCap
	}
	r.total++
	if len(r.buf) < capN {
		r.buf = append(r.buf, e)
		return
	}
	// Overwrite the oldest slot; the buffer is a ring from here on.
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// Total returns how many events were emitted (including evicted ones).
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the ring buffer evicted.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Filter returns the retained events of the given type, oldest first.
func (r *Recorder) Filter(t EventType) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// Reset discards all retained events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf, r.start, r.total, r.dropped = nil, 0, 0, 0
}

// --- JSONL writer ---------------------------------------------------------

// A writer's batches (108 KiB): one Emit fills, one queued, one being encoded.
const jsonlBatch, jsonlBatches = 512, 3

// JSONLWriter streams events as one JSON object per line — the offline
// analysis format. Emit copies the event into a batch; the writer's own
// goroutine, started when the first batch fills, encodes batches in Emit
// order. Writes are buffered; call Close (or Flush) before reading the output.
type JSONLWriter struct {
	mu               sync.Mutex
	c                io.Closer      // underlying closer, if any
	cur              []Event        // the batch Emit fills
	full, empty      chan []Event   // batches to the encoder, and back cleared
	busy             sync.WaitGroup // batches handed over and not yet encoded
	done             chan struct{}  // closed when the encoder exits
	started, stopped bool

	// The encoder's while a batch is out; mu's holder's once busy.Wait returns.
	w   *bufio.Writer
	n   int64
	err error
}

// NewJSONLWriter wraps w. If w is an io.Closer, Close closes it too.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	// Each channel has room for every batch, so no send blocks; Emit waits
	// only for an empty batch, when the encoder is a whole batch behind.
	j := &JSONLWriter{w: bufio.NewWriterSize(w, 1<<16), cur: make([]Event, 0, jsonlBatch),
		full: make(chan []Event, jsonlBatches), empty: make(chan []Event, jsonlBatches), done: make(chan struct{})}
	for i := 1; i < jsonlBatches; i++ {
		j.empty <- make([]Event, 0, jsonlBatch)
	}
	j.c, _ = w.(io.Closer)
	return j
}

// Emit queues e to be encoded as one line. The first error — encode or
// flush — is sticky: once the writer is dead, later emissions are dropped
// instead of encoded into a failed destination. Close (or Err) reports it.
func (j *JSONLWriter) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cur = append(j.cur, e); len(j.cur) < jsonlBatch {
		return
	}
	if j.stopped { // after Close the caller encodes
		j.drain()
		return
	}
	if !j.started {
		j.started = true
		go j.encoder()
	}
	// The encoder never takes mu, so waiting under it cannot deadlock.
	j.busy.Add(1)
	j.full <- j.cur
	j.cur = <-j.empty
}

func (j *JSONLWriter) encoder() {
	for b := range j.full {
		j.empty <- j.encodeBatch(b)
		j.busy.Done()
	}
	close(j.done)
}

// drain (mu held) waits for the encoder to go idle, then encodes the rest.
func (j *JSONLWriter) drain() {
	j.busy.Wait()
	j.cur = j.encodeBatch(j.cur)
}

// encodeBatch encodes b in order and returns it cleared, pinning no string.
func (j *JSONLWriter) encodeBatch(b []Event) []Event {
	for _, e := range b {
		if j.err != nil {
			break
		}
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			j.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(e.Value, 'g', -1, 64)}
			break
		}
		// The line is built in the buffer's own free space. Flushing first
		// when it may not fit keeps append from outgrowing that space and
		// allocating; only an event larger than the whole buffer still does,
		// and Write then passes it through.
		if j.w.Available() < maxPlainEvent+len(e.Kind)+len(e.Aux) {
			if j.err = j.w.Flush(); j.err != nil {
				break
			}
		}
		if _, j.err = j.w.Write(appendEvent(j.w.AvailableBuffer(), e)); j.err == nil {
			j.n++
		}
	}
	clear(b)
	return b[:0]
}

// Count returns the number of events successfully encoded.
func (j *JSONLWriter) Count() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.drain()
	return j.n
}

// Err returns the sticky error, if any — the first encode or flush failure
// over the writer's lifetime.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.drain()
	return j.err
}

// Flush pushes buffered lines to the underlying writer. A flush failure is
// as sticky as an encode failure: the writer stops accepting events.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.drain(); j.err == nil {
		j.err = j.w.Flush()
	}
	return j.err
}

// Close flushes, stops the encoder and closes the underlying writer (when
// closable), returning the first error encountered over the writer's
// lifetime.
func (j *JSONLWriter) Close() error {
	err := j.Flush()
	j.mu.Lock()
	if j.started && !j.stopped {
		close(j.full)
		<-j.done
	}
	j.stopped = true
	j.mu.Unlock()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadJSONL decodes a JSONL trace back into events — the replay half of
// the format, kept as the convenient load-all API on top of the streaming
// Scanner. It stops at the first malformed line and returns the events
// decoded so far alongside the error; a truncated final line therefore
// yields every complete event plus the error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := NewScanner(r)
	var out []Event
	for sc.Scan() {
		out = append(out, sc.Event())
	}
	return out, sc.Err()
}
