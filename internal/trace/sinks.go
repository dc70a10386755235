package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/ids"
	"repro/internal/metrics"
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

// --- Stats sink -----------------------------------------------------------

// KindTotal is one row of a message-taxonomy breakdown.
type KindTotal struct {
	Kind  string
	Count int64
}

// GaugeStat summarizes one named gauge.
type GaugeStat struct {
	Last, Max float64
	N         int64
}

// NodeTotal is one row of a per-node hot-spot breakdown.
type NodeTotal struct {
	Node  ids.ID
	Count int64
}

// nodeStat accumulates one node's message activity.
type nodeStat struct {
	sent, recvd, dropped int64
}

// StatsSink aggregates events instead of retaining them: per-type totals,
// per-kind message taxonomy (sends and drops separately), per-node
// activity (hot-spot senders/receivers/droppers), named counters and
// gauges, and round bookkeeping. It is the tracer-fed replacement for
// ad-hoc experiment counters and feeds internal/metrics tables directly.
type StatsSink struct {
	mu       sync.Mutex
	byType   [256]int64       // indexed by EventType
	sends    map[string]int64 // message kind -> frames sent
	drops    map[string]int64 // drop reason (Aux) -> frames lost
	byNode   map[ids.ID]*nodeStat
	counters map[string]float64
	gauges   map[string]GaugeStat
	rounds   int64
}

// NewStatsSink returns an empty aggregator.
func NewStatsSink() *StatsSink {
	return &StatsSink{
		sends:    make(map[string]int64),
		drops:    make(map[string]int64),
		byNode:   make(map[ids.ID]*nodeStat),
		counters: make(map[string]float64),
		gauges:   make(map[string]GaugeStat),
	}
}

func (s *StatsSink) nodeStatFor(v ids.ID) *nodeStat {
	ns := s.byNode[v]
	if ns == nil {
		ns = &nodeStat{}
		s.byNode[v] = ns
	}
	return ns
}

// Emit folds e into the aggregates.
func (s *StatsSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byType[e.Type]++
	switch e.Type {
	case EvMsgSend:
		s.sends[e.Kind]++
		s.nodeStatFor(e.Node).sent++
	case EvMsgRecv:
		s.nodeStatFor(e.Node).recvd++
	case EvMsgDrop:
		s.drops[e.Aux]++
		s.nodeStatFor(e.Node).dropped++
	case EvCounter:
		s.counters[e.Kind] += e.Value
	case EvGauge:
		g := s.gauges[e.Kind]
		g.Last = e.Value
		if e.Value > g.Max || g.N == 0 {
			g.Max = e.Value
		}
		g.N++
		s.gauges[e.Kind] = g
	case EvRoundEnd:
		s.rounds++
	}
}

// TypeCounts returns how many events of each type were seen, sorted by
// type name.
func (s *StatsSink) TypeCounts() []KindTotal {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []KindTotal
	for t, c := range s.byType {
		if c != 0 {
			out = append(out, KindTotal{Kind: EventType(t).String(), Count: c})
		}
	}
	return sortByKind(out)
}

// Rounds returns the number of completed rounds observed.
func (s *StatsSink) Rounds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// Counter returns the accumulated value of a named counter.
func (s *StatsSink) Counter(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Counters returns every named counter total, sorted by name. Values are
// rounded to integers: trace counters count discrete happenings.
func (s *StatsSink) Counters() []KindTotal {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]KindTotal, 0, len(s.counters))
	for k, v := range s.counters {
		out = append(out, KindTotal{Kind: k, Count: int64(math.Round(v))})
	}
	return sortByKind(out)
}

// Gauges returns the summary of every named gauge, by name.
func (s *StatsSink) Gauges() map[string]GaugeStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]GaugeStat, len(s.gauges))
	for name, g := range s.gauges {
		out[name] = g
	}
	return out
}

// MessageTaxonomy returns the per-kind send totals, sorted by kind — the
// breakdown the E6-family reports print.
func (s *StatsSink) MessageTaxonomy() []KindTotal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedTotals(s.sends)
}

// Drops returns the per-reason loss totals, sorted by reason.
func (s *StatsSink) Drops() []KindTotal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedTotals(s.drops)
}

// TotalSent returns the number of frames sent across all kinds.
func (s *StatsSink) TotalSent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, v := range s.sends {
		t += v
	}
	return t
}

// TaxonomyTable renders per-kind send totals (plus a TOTAL row) as a
// metrics table, ready to embed in an experiment or trace report.
func TaxonomyTable(tax []KindTotal) *metrics.Table {
	tab := metrics.NewTable("kind", "frames", "share")
	var total int64
	for _, kt := range tax {
		total += kt.Count
	}
	for _, kt := range tax {
		share := 0.0
		if total > 0 {
			share = float64(kt.Count) / float64(total)
		}
		tab.AddRow(kt.Kind, kt.Count, share)
	}
	tab.AddRow("TOTAL", total, 1.0)
	return tab
}

// topNodes returns the k largest entries by pick(stat), ties broken by
// ascending node id for determinism; k <= 0 means all.
func (s *StatsSink) topNodes(k int, pick func(*nodeStat) int64) []NodeTotal {
	s.mu.Lock()
	out := make([]NodeTotal, 0, len(s.byNode))
	for v, ns := range s.byNode {
		if c := pick(ns); c > 0 {
			out = append(out, NodeTotal{Node: v, Count: c})
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Node < out[j].Node
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TopSenders returns the k nodes that put the most frames on the air.
func (s *StatsSink) TopSenders(k int) []NodeTotal {
	return s.topNodes(k, func(ns *nodeStat) int64 { return ns.sent })
}

// TopReceivers returns the k nodes that had the most frames delivered.
func (s *StatsSink) TopReceivers(k int) []NodeTotal {
	return s.topNodes(k, func(ns *nodeStat) int64 { return ns.recvd })
}

// TopDroppers returns the k nodes whose transmissions were lost most often.
func (s *StatsSink) TopDroppers(k int) []NodeTotal {
	return s.topNodes(k, func(ns *nodeStat) int64 { return ns.dropped })
}

// NodeActivity returns one node's (sent, received, dropped) totals.
func (s *StatsSink) NodeActivity(v ids.ID) (sent, recvd, dropped int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.byNode[v]
	if ns == nil {
		return 0, 0, 0
	}
	return ns.sent, ns.recvd, ns.dropped
}

// HotSpotTable renders the k busiest nodes by frames sent, with their
// receive and drop totals alongside — the per-node view that localizes a
// pathological talker (or a partitioned island that stops receiving).
func (s *StatsSink) HotSpotTable(k int) *metrics.Table {
	tab := metrics.NewTable("node", "sent", "recvd", "dropped")
	for _, nt := range s.TopSenders(k) {
		sent, recvd, dropped := s.NodeActivity(nt.Node)
		tab.AddRow(nt.Node, sent, recvd, dropped)
	}
	return tab
}

func sortedTotals(m map[string]int64) []KindTotal {
	out := make([]KindTotal, 0, len(m))
	for k, v := range m {
		out = append(out, KindTotal{Kind: k, Count: v})
	}
	return sortByKind(out)
}

func sortByKind(out []KindTotal) []KindTotal {
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}
