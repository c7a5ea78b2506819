package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// CheckpointReport is one exactness checkpoint: whether every queried
// mode's answer matched baseline.Compute over the target's own window.
type CheckpointReport struct {
	WindowPoints int             `json:"window_points"` // size of the frozen window union
	Expected     []string        `json:"expected"`      // baseline answer, "origin/seq" keys
	Modes        map[string]bool `json:"modes"`         // mode → served answer matched
	Match        bool            `json:"match"`
	// FetchError records an infrastructure failure (a query that could
	// not be fetched after retries) as distinct from inexactness: a
	// checkpoint that could not read the target says nothing about
	// whether the target's answers were exact, so Match is left true and
	// the checkpoint surfaces as an error instead.
	FetchError string `json:"fetch_error,omitempty"`
}

// Report is the full result of one scenario run: what the firehose
// sent and the verdict of every exactness checkpoint. It carries no
// timings — the repo's one perf record is bench/.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Cluster  bool   `json:"cluster"`
	Shards   int    `json:"shards"`
	Sensors  int    `json:"sensors"`  // virtual fleet size
	Attached int    `json:"attached"` // physical sensors multiplexed onto

	Fire        FireStats          `json:"fire"`
	Checkpoints []CheckpointReport `json:"checkpoints"`

	CheckpointsOK bool `json:"checkpoints_ok"`
}

// Write stores the report as innetload_<scenario>.json in dir and
// returns the path written.
func (r *Report) Write(dir string) (string, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("loadgen: write report: %w", err)
	}
	path := filepath.Join(dir, "innetload_"+r.Scenario+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("loadgen: write report: %w", err)
	}
	return path, nil
}
