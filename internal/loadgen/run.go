package loadgen

import (
	"context"
	"fmt"
	"time"
)

// Runner drives one scenario end to end: fire the trace at the target
// in segments and freeze the pipeline at each segment boundary for an
// exactness checkpoint.
type Runner struct {
	Scenario *Scenario
	Target   Target
	Logf     func(format string, args ...any) // optional progress log
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// modes returns the query modes that make sense for the target: a
// single innetd has exactly one query path, a coordinator has no
// "single" one.
func (r *Runner) modes() []string {
	var out []string
	for _, m := range r.Scenario.Queries.Modes {
		switch {
		case r.Target.Cluster && m == "single":
			r.logf("loadgen: dropping query mode %q: target is a cluster", m)
		case !r.Target.Cluster && m != "single":
			r.logf("loadgen: query mode %q collapses to the single query path", m)
			out = append(out, m)
		default:
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		if r.Target.Cluster {
			out = []string{"compact", "full"}
		} else {
			out = []string{"single"}
		}
	}
	return out
}

// Run executes the scenario and returns its report. A checkpoint
// mismatch is reported in Report.CheckpointsOK, not as an error — the
// caller decides whether exactness failure fails the run.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	sc := r.Scenario
	modes := r.modes()

	fire := NewFirehose(sc, r.Target.UDP)
	total := time.Duration(sc.Traffic.DurationS * float64(time.Second))
	segments := sc.Checkpoints.Count
	if segments < 1 {
		segments = 1
	}

	report := &Report{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Cluster:  r.Target.Cluster,
		Shards:   r.Target.Shards,
		Sensors:  sc.Fleet.Sensors,
		Attached: sc.Fleet.Attached,
	}

	for seg := 0; seg < segments; seg++ {
		d := total/time.Duration(segments) + time.Duration(seg%2) // spread rounding
		if err := fire.Run(ctx, d); err != nil {
			return nil, err
		}
		if sc.Checkpoints.Count > 0 {
			r.logf("loadgen: checkpoint %d/%d", seg+1, segments)
			cp, err := r.Target.checkpoint(ctx, sc, modes)
			if err != nil {
				return nil, fmt.Errorf("loadgen: checkpoint %d: %w", seg+1, err)
			}
			report.Checkpoints = append(report.Checkpoints, cp)
			r.logf("loadgen: checkpoint %d/%d: window=%d match=%v",
				seg+1, segments, cp.WindowPoints, cp.Match)
		}
	}
	report.Fire = fire.Stats()

	report.CheckpointsOK = true
	for _, cp := range report.Checkpoints {
		if !cp.Match {
			report.CheckpointsOK = false
		}
	}
	return report, nil
}
