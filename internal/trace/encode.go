package trace

// This file is the writing half of the JSONL wire format. The reference is
// what encoding/json's reflective encoder prints for Event (HTML escaping
// on, as json.Encoder defaults to); appendEvent reproduces it byte for byte
// without reflection or allocation, and the tests hold the two together.

import (
	"encoding/json"
	"math"
	"strconv"
)

// maxPlainEvent bounds the encoded size of an event whose Kind and Aux are
// empty: five keys with punctuation, a 20-digit T, Node and Peer, the
// longest type name, a 24-byte float and the newline come to 154 bytes.
const maxPlainEvent = 160

// appendEvent appends e as one JSON line: fields in the order t, ev, node,
// peer, kind, aux, val, the last five omitted when zero. e.Value must be
// finite (JSON has no spelling for NaN or ±Inf).
func appendEvent(dst []byte, e Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, e.T, 10)
	dst = append(dst, `,"ev":`...)
	dst = appendString(dst, e.Type.String())
	if e.Node != 0 {
		dst = append(dst, `,"node":`...)
		dst = strconv.AppendUint(dst, uint64(e.Node), 10)
	}
	if e.Peer != 0 {
		dst = append(dst, `,"peer":`...)
		dst = strconv.AppendUint(dst, uint64(e.Peer), 10)
	}
	if e.Kind != "" {
		dst = append(dst, `,"kind":`...)
		dst = appendString(dst, e.Kind)
	}
	if e.Aux != "" {
		dst = append(dst, `,"aux":`...)
		dst = appendString(dst, e.Aux)
	}
	if e.Value != 0 {
		dst = append(dst, `,"val":`...)
		dst = appendFloat(dst, e.Value)
	}
	return append(dst, '}', '\n')
}

// appendString appends s as a JSON string. Printable ASCII other than the
// five bytes encoding/json escapes is copied as is — every message kind,
// drop reason and metric name the simulator emits; any other byte hands the
// whole string to encoding/json, which owns the escape rules (control
// bytes, <>&, U+2028/9, invalid UTF-8).
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends a finite non-zero f the way encoding/json does:
// shortest round-trip digits, plain notation unless |f| < 1e-6 or ≥ 1e21,
// and then exponent notation with a one-digit exponent unpadded (1e-07
// prints as 1e-7). Integers below 2^53 — counts, ticks, nanoseconds —
// print the same digits through AppendInt at a fraction of the cost.
func appendFloat(dst []byte, f float64) []byte {
	if -1<<53 < f && f < 1<<53 {
		if i := int64(f); float64(i) == f {
			return strconv.AppendInt(dst, i, 10)
		}
	}
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
