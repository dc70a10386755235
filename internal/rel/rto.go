// Package rel is the reliable-delivery sublayer: it wraps the fire-and-forget
// phys.Network behind the same Send/Handler seam (phys.Transport), adding
// sequence-numbered frames with receiver-side dedup, per-frame ACKs,
// retransmission driven by an adaptive RTO, and a heartbeat/lease failure
// detector that tells protocols when a physical neighbor died instead of
// letting each protocol wait out its own silence threshold.
//
// The RTO follows Jacobson's SRTT/RTTVAR estimator with Karn's rule: only
// frames that were never retransmitted contribute RTT samples (an ACK for a
// retransmitted frame is ambiguous — it may answer any of the copies), and
// each retransmission doubles the timeout up to a cap, so a dead link backs
// off instead of flooding.
//
// Per-frame state lives in slices, not maps: an endpoint's links sorted by
// peer, a link's sender window indexed by sequence number from its lowest
// frame in flight, and its receiver's out-of-order set as an ascending
// slice. A pending record owns its retransmission timer and goes back to
// the Network's free list from that timer's last firing, so a reliable
// frame allocates only its boxed Frame and Ack.
package rel

import (
	"repro/internal/sim"
)

// RTOEstimator computes the retransmission timeout from smoothed RTT
// statistics (Jacobson/Karn, the TCP estimator adapted to simulator ticks):
//
//	first sample R:  SRTT = R, RTTVAR = R/2
//	later samples:   RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|
//	                 SRTT   = 7/8·SRTT + 1/8·R
//	RTO = clamp(SRTT + 4·RTTVAR, [Min, Max]), then doubled per backoff
//	step (capped at Max) until the next valid sample resets the backoff.
//
// The zero value is unusable; construct with NewRTOEstimator. The estimator
// is pure state — it never touches the engine — so tests can drive it with
// hand-computed sample sequences.
type RTOEstimator struct {
	min, max sim.Time

	srtt, rttvar float64
	sampled      bool
	base         sim.Time // clamped SRTT + 4·RTTVAR, before backoff
	backoff      uint     // consecutive-retransmission exponent
}

// NewRTOEstimator returns an estimator clamping RTOs to [min, max]. Before
// the first sample the RTO is initial (itself clamped), mirroring TCP's
// conservative pre-measurement timeout.
func NewRTOEstimator(min, max, initial sim.Time) *RTOEstimator {
	e := &RTOEstimator{min: min, max: max}
	e.base = clampTime(initial, min, max)
	return e
}

// Sample feeds one valid RTT measurement (Karn's rule: callers must only
// sample frames that were never retransmitted). It recomputes the RTO and
// resets any backoff.
func (e *RTOEstimator) Sample(r sim.Time) {
	fr := float64(r)
	if !e.sampled {
		e.srtt = fr
		e.rttvar = fr / 2
		e.sampled = true
	} else {
		d := e.srtt - fr
		if d < 0 {
			d = -d
		}
		e.rttvar = 0.75*e.rttvar + 0.25*d
		e.srtt = 0.875*e.srtt + 0.125*fr
	}
	e.base = clampTime(ceilTime(e.srtt+4*e.rttvar), e.min, e.max)
	e.backoff = 0
}

// Backoff doubles the effective RTO (capped at Max) after a retransmission.
func (e *RTOEstimator) Backoff() {
	if e.RTO() < e.max {
		e.backoff++
	}
}

// RTO returns the current effective retransmission timeout, including any
// exponential backoff, clamped to [Min, Max].
func (e *RTOEstimator) RTO() sim.Time {
	r := e.base
	for i := uint(0); i < e.backoff; i++ {
		r *= 2
		if r >= e.max {
			return e.max
		}
	}
	return clampTime(r, e.min, e.max)
}

// SRTT returns the smoothed RTT (0 before the first sample).
func (e *RTOEstimator) SRTT() float64 { return e.srtt }

// RTTVar returns the smoothed RTT deviation (0 before the first sample).
func (e *RTOEstimator) RTTVar() float64 { return e.rttvar }

// Sampled reports whether at least one valid RTT sample has been absorbed.
func (e *RTOEstimator) Sampled() bool { return e.sampled }

func clampTime(v, lo, hi sim.Time) sim.Time {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ceilTime rounds a fractional tick count up: a timeout strictly shorter
// than the measured RTT would retransmit spuriously every frame.
func ceilTime(f float64) sim.Time {
	t := sim.Time(f)
	if float64(t) < f {
		t++
	}
	return t
}
