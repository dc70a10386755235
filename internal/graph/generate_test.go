package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// generatedDigest is the first 16 hex digits of the SHA-256 of, for each
// IDAssignment and each of pinnedSeeds in turn, Generate's node count
// followed by its Edges(), every value as 8 little-endian bytes.
func generatedDigest(t testing.TB, topo Topology, n int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, policy := range []IDAssignment{RandomIDs, SequentialIDs} {
		for _, seed := range pinnedSeeds {
			g, err := Generate(topo, n, policy, seed)
			if err != nil {
				t.Fatalf("Generate(%s, %d): %v", topo, n, err)
			}
			put(uint64(g.NumNodes()))
			for _, e := range g.Edges() {
				put(uint64(e.U))
				put(uint64(e.V))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var pinnedSeeds = []int64{1, 2, 3}

// pinnedGraphs holds generatedDigest per topology and n, computed with the
// generators as they stood when the topology was pinned: n = 0, 1, 2, 3,
// 10, 64, 500, 2000, and 4000 for powerlaw and regular, less the grid sizes
// where Generate used to panic. Barabasi's graphs used to hang on map
// iteration order: it is pinned as it stood once it kept its draw order.
var pinnedGraphs = []struct {
	topo   Topology
	n      int
	digest string
}{
	{TopoLine, 0, "17b0761f87b081d5"},
	{TopoLine, 1, "334658f1779808c7"},
	{TopoLine, 2, "d9d6fb328d8cf1fa"},
	{TopoLine, 3, "5a54849b778d3c58"},
	{TopoLine, 10, "42172957fbd6e9ab"},
	{TopoLine, 64, "bff330770e21688f"},
	{TopoLine, 500, "24e79a3fcc70bac6"},
	{TopoLine, 2000, "07f871be646afae7"},
	{TopoRing, 0, "17b0761f87b081d5"},
	{TopoRing, 1, "334658f1779808c7"},
	{TopoRing, 2, "d9d6fb328d8cf1fa"},
	{TopoRing, 3, "9b9d289e367101cb"},
	{TopoRing, 10, "679b66b7eee6e5b2"},
	{TopoRing, 64, "594ffb6f8d15bdbf"},
	{TopoRing, 500, "1b7fa8c7e785d8a4"},
	{TopoRing, 2000, "5d9b8a4435a9c57a"},
	{TopoStar, 0, "17b0761f87b081d5"},
	{TopoStar, 1, "334658f1779808c7"},
	{TopoStar, 2, "d9d6fb328d8cf1fa"},
	{TopoStar, 3, "e3175c29cefd0ce1"},
	{TopoStar, 10, "8a3ff2ec2147e604"},
	{TopoStar, 64, "ce1fa9225a8c5151"},
	{TopoStar, 500, "f377ce5657943a27"},
	{TopoStar, 2000, "950f83d8f8ae693c"},
	{TopoGrid, 1, "334658f1779808c7"},
	{TopoGrid, 2, "334658f1779808c7"},
	{TopoGrid, 10, "af70216f10a351ce"},
	{TopoGrid, 64, "d263e278a7a34fac"},
	{TopoGrid, 500, "4473e9f1fce99b1c"},
	{TopoER, 0, "17b0761f87b081d5"},
	{TopoER, 1, "334658f1779808c7"},
	{TopoER, 2, "d9d6fb328d8cf1fa"},
	{TopoER, 3, "1d0f2af74b5506b1"},
	{TopoER, 10, "d2cd22cea597d78c"},
	{TopoER, 64, "5b96510dfeeacc72"},
	{TopoER, 500, "7fb36f34dd5325d5"},
	{TopoER, 2000, "8be0f6ccb26e6fb2"},
	{TopoRegular, 0, "17b0761f87b081d5"},
	{TopoRegular, 1, "334658f1779808c7"},
	{TopoRegular, 2, "d9d6fb328d8cf1fa"},
	{TopoRegular, 3, "9b9d289e367101cb"},
	{TopoRegular, 10, "f6600ac1f620bfd2"},
	{TopoRegular, 64, "168f66dcb4f795db"},
	{TopoRegular, 500, "fe4440759470b93a"},
	{TopoRegular, 2000, "644fdb3a532abd53"},
	{TopoRegular, 4000, "e86c67d547fdcbee"},
	{TopoPowerLaw, 0, "17b0761f87b081d5"},
	{TopoPowerLaw, 1, "334658f1779808c7"},
	{TopoPowerLaw, 2, "d9d6fb328d8cf1fa"},
	{TopoPowerLaw, 3, "d5e6b86a893e5757"},
	{TopoPowerLaw, 10, "a04e275c160d85dd"},
	{TopoPowerLaw, 64, "1561f7975be08dd9"},
	{TopoPowerLaw, 500, "1902fb5da9fd69de"},
	{TopoPowerLaw, 2000, "872bb638cd7ec416"},
	{TopoPowerLaw, 4000, "63b1cb44add03e9f"},
	{TopoBarabasi, 0, "17b0761f87b081d5"},
	{TopoBarabasi, 1, "334658f1779808c7"},
	{TopoBarabasi, 2, "d9d6fb328d8cf1fa"},
	{TopoBarabasi, 3, "9b9d289e367101cb"},
	{TopoBarabasi, 10, "dc9e0c6bc98e921d"},
	{TopoBarabasi, 64, "4ef1c97dcf03ff82"},
	{TopoBarabasi, 500, "17940f7c179ffd5d"},
	{TopoBarabasi, 2000, "5150e8e997dbbac9"},
	{TopoUnitDisk, 0, "17b0761f87b081d5"},
	{TopoUnitDisk, 1, "334658f1779808c7"},
	{TopoUnitDisk, 2, "d9d6fb328d8cf1fa"},
	{TopoUnitDisk, 3, "736df46c3c873481"},
	{TopoUnitDisk, 10, "a7bebd7f06714947"},
	{TopoUnitDisk, 64, "33598bfc938553d6"},
	{TopoUnitDisk, 500, "98abe5289fb7c596"},
	{TopoUnitDisk, 2000, "3a2bd87f9e80ba71"},
}

// TestGeneratorsPinned: Generate builds the pinned graphs.
func TestGeneratorsPinned(t *testing.T) {
	for _, p := range pinnedGraphs {
		if got := generatedDigest(t, p.topo, p.n); got != p.digest {
			t.Errorf("%s n=%d: digest %s, pinned %s", p.topo, p.n, got, p.digest)
		}
	}
}
