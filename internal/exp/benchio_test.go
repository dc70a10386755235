package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetaKeepsCommittedHeaders: the meta header of every committed bench
// record decodes into Meta with no field left over, re-encodes to the same
// bytes, and is the record's only copy of its keys.
func TestMetaKeepsCommittedHeaders(t *testing.T) {
	for _, name := range []string{"BENCH_chaos.json", "BENCH_reliability.json"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		var doc, meta map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := json.Unmarshal(doc["meta"], &meta); err != nil {
			t.Fatalf("%s: meta: %v", name, err)
		}
		for key := range meta {
			if _, ok := doc[key]; ok {
				t.Errorf("%s: top-level key %q repeats the meta header's", name, key)
			}
		}
		dec := json.NewDecoder(bytes.NewReader(doc["meta"]))
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
		if err := json.Compact(&want, doc["meta"]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: meta re-encodes as\n%s\nwant\n%s", name, got, want.Bytes())
		}
	}
}
