package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ascendingRow draws a strictly ascending row of n entries. Half the rows
// are dense (gaps of 1–3 from a small start, as dense node indices are);
// the rest spread over all of int32, and some of those end at
// math.MaxInt32, so the comparison's extremes are covered.
func ascendingRow(r *rand.Rand, n int) []int32 {
	set := make(map[int32]bool, n)
	if r.Intn(2) == 0 {
		x := int32(r.Intn(4))
		for len(set) < n {
			set[x] = true
			x += 1 + int32(r.Intn(3))
		}
	} else {
		if r.Intn(4) == 0 {
			set[math.MaxInt32] = true
		}
		for len(set) < n {
			set[int32(r.Uint32())] = true
		}
	}
	row := make([]int32, 0, n)
	for x := range set {
		row = append(row, x)
	}
	slices.Sort(row)
	return row
}

// probes returns every value whose position in row a search can get
// wrong: each entry and its two neighbours, one past each end, and the
// int32 extremes.
func probes(row []int32) []int32 {
	xs := []int32{0, math.MaxInt32, math.MinInt32, -1, 1}
	for _, x := range row {
		xs = append(xs, x)
		if x > math.MinInt32 {
			xs = append(xs, x-1)
		}
		if x < math.MaxInt32 {
			xs = append(xs, x+1)
		}
	}
	return xs
}

func checkSearchRow(t *testing.T, row []int32, x int32) {
	t.Helper()
	gi, gok := SearchRow(row, x)
	wi, wok := slices.BinarySearch(row, x)
	if gi != wi || gok != wok {
		t.Fatalf("SearchRow(len %d, %d) = (%d, %v), slices.BinarySearch = (%d, %v); row %v", len(row), x, gi, gok, wi, wok, row)
	}
}

// TestSearchRowMatchesBinarySearch holds the branchless search to
// slices.BinarySearch on random rows of every length from 0 to 70 and one
// of 4096, at every probe that can land on, between or beyond an entry.
func TestSearchRowMatchesBinarySearch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 70; n++ {
		for rep := 0; rep < 20; rep++ {
			row := ascendingRow(r, n)
			for _, x := range probes(row) {
				checkSearchRow(t, row, x)
			}
		}
	}
	row := ascendingRow(r, 4096)
	for _, x := range probes(row) {
		checkSearchRow(t, row, x)
	}
}

// FuzzSearchRow: the row is the input's 4-byte words, read as unsigned
// gaps added to a start of math.MinInt32 and kept while they ascend
// strictly within int32; the probe is the fuzzed x.
func FuzzSearchRow(f *testing.F) {
	f.Add([]byte{}, int32(0))
	f.Add([]byte{0, 0, 0, 0x80, 1, 0, 0, 0, 1, 0, 0, 0}, int32(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, int32(math.MaxInt32))
	f.Fuzz(func(t *testing.T, data []byte, x int32) {
		var row []int32
		v := int64(math.MinInt32) - 1
		for i := 0; i+4 <= len(data); i += 4 {
			v += 1 + int64(binary.LittleEndian.Uint32(data[i:]))
			if v > math.MaxInt32 {
				break
			}
			row = append(row, int32(v))
		}
		checkSearchRow(t, row, x)
		for _, y := range probes(row) {
			checkSearchRow(t, row, y)
		}
	})
}
