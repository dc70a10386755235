package exp

// Shared shape of the BENCH_*.json records: every record opens with the
// same meta header and goes through one writer, so the on-disk form
// (indentation, trailing newline, directory creation) is uniform.

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// metaSchema is Meta.Schema: bump it on an incompatible change to a
// record's shape.
const metaSchema = 3

// Meta is the configuration header of one bench record: what produced
// the file.
type Meta struct {
	Schema    int    `json:"schema"`
	Bench     string `json:"bench"`
	Topology  string `json:"topology,omitempty"`
	Seed      int64  `json:"seed"`
	N         int    `json:"n,omitempty"`
	Transport string `json:"transport,omitempty"`
	Quick     bool   `json:"quick,omitempty"`
}

// WriteBenchJSON writes a bench record (ChaosResult, ReliabilityResult)
// to path, creating the directory.
func WriteBenchJSON(path string, res any) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
