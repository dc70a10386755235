package graph

import (
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkGenerate: Generate end to end, identifier draws included, for
// the three generators the benchmark inputs come from. One iteration
// builds one graph; the seed moves with the iteration.
func BenchmarkGenerate(b *testing.B) {
	for _, topo := range []Topology{TopoPowerLaw, TopoRegular, TopoUnitDisk} {
		for _, n := range []int{4000, 100000} {
			b.Run(string(topo)+"/n"+strconv.Itoa(n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Generate(topo, n, RandomIDs, int64(i+1)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSearchRow: one SearchRow on a row of 4 to 1024 entries, at the
// next of 2¹⁶ probes drawn at random: "hit" probes are entries, "miss"
// probes fall between two entries or past the last. The table is that
// long because a branch predictor learns a repeating sequence of 1024
// probes, and then a branchy search looks as cheap as it never is in a
// run. The round model's rows average about 16 entries.
func BenchmarkSearchRow(b *testing.B) {
	const probeN = 1 << 16
	for _, n := range []int{4, 16, 64, 1024} {
		row := make([]int32, n)
		for i := range row {
			row[i] = int32(2 * i)
		}
		r := rand.New(rand.NewSource(1))
		hit, miss := make([]int32, probeN), make([]int32, probeN)
		for i := range hit {
			hit[i] = row[r.Intn(n)]
			miss[i] = row[r.Intn(n)] + 1
		}
		for _, c := range []struct {
			name  string
			xs    []int32
			found bool
		}{{"hit", hit, true}, {"miss", miss, false}} {
			b.Run("len"+strconv.Itoa(n)+"/"+c.name, func(b *testing.B) {
				sum := 0
				for i := 0; i < b.N; i++ {
					j, found := SearchRow(row, c.xs[i&(probeN-1)])
					if found != c.found {
						b.Fatal("wrong membership")
					}
					sum += j
				}
				benchSink = sum
			})
		}
	}
}

// benchSink keeps the benchmarked results live.
var benchSink int
