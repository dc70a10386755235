package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetaKeepsCommittedHeaders: the meta header of every committed bench
// record decodes into Meta with no field left over, and re-encodes to the
// same bytes.
func TestMetaKeepsCommittedHeaders(t *testing.T) {
	for _, name := range []string{"BENCH_chaos.json", "BENCH_reliability.json"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Meta json.RawMessage `json:"meta"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec := json.NewDecoder(bytes.NewReader(doc.Meta))
		dec.DisallowUnknownFields()
		var m Meta
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("%s: meta: %v", name, err)
		}
		got, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, doc.Meta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: meta re-encodes as\n%s\nwant\n%s", name, got, want.Bytes())
		}
	}
}
