package graph

import (
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
