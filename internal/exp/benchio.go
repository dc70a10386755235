package exp

// Shared writer for the BENCH_*.json artifacts: every bench record goes
// through one path so the on-disk shape (indentation, trailing newline,
// directory creation) stays uniform for tooling like `tracectl bench
// compare`.

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// WriteBenchJSON writes a bench record (ChaosResult, ReliabilityResult,
// ProfileResult) to path, creating the directory.
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
