// Command expfig regenerates every table and figure of the paper's
// evaluation section (Figs. 4–9, the §7.1 accuracy claim, and the 32-
// vs-53-node scale comparison) and prints them as TSV blocks suitable
// for gnuplot.
//
// Usage:
//
//	expfig [-fig all|fig4|fig5|fig6|fig7|fig8|fig9|accuracy|scale]
//	       [-full] [-seeds n] [-duration d] [-out dir] [-workers n] [-v]
//
// By default a reduced "quick" scale runs (one seed, 750 s); -full
// selects the paper scale (four seeds, 1000 s, full sweeps), which takes
// considerably longer.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"innet/internal/runner"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "expfig:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	names := make([]string, len(runner.Figures))
	for i, spec := range runner.Figures {
		names[i] = spec.ID
	}
	ids := strings.Join(names, ", ")

	fs := flag.NewFlagSet("expfig", flag.ContinueOnError)
	var (
		figFlag  = fs.String("fig", "all", "figure to regenerate (all, "+ids+")")
		full     = fs.Bool("full", false, "paper scale: 4 seeds, 1000 s, full sweeps")
		seeds    = fs.Int("seeds", 0, "override the number of seeds")
		duration = fs.Duration("duration", 0, "override the simulated duration")
		outDir   = fs.String("out", "", "also write each figure's TSVs into this directory")
		verbose  = fs.Bool("v", false, "progress output on stderr")
		workers  = fs.Int("workers", 0, "max concurrent seed simulations (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale := runner.QuickScale()
	if *full {
		scale = runner.PaperScale()
	}
	if *seeds > 0 {
		scale.Seeds = scale.Seeds[:0]
		for s := 1; s <= *seeds; s++ {
			scale.Seeds = append(scale.Seeds, uint64(s))
		}
	}
	if *duration > 0 {
		scale.Duration = *duration
	}

	session := runner.NewSession()
	session.Workers = *workers
	if *verbose {
		start := time.Now()
		session.Observer = func(cfg runner.Config, res runner.Result) {
			fmt.Fprintf(os.Stderr, "[%6.0fs] %s %s w=%d n=%d eps=%d: tx=%.5f rx=%.5f acc=%.3f\n",
				time.Since(start).Seconds(), cfg.Algo, cfg.Ranker, cfg.WindowSamples,
				cfg.N, cfg.HopLimit, res.AvgTxJPerRound, res.AvgRxJPerRound, res.Accuracy)
		}
	}

	want := strings.ToLower(*figFlag)
	matched := false
	for _, spec := range runner.Figures {
		if want != "all" && want != spec.ID {
			continue
		}
		matched = true
		fig, err := session.Figure(spec, scale)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		for _, m := range spec.Metrics {
			tsv := fig.TSV(m.Of, m.Name)
			fmt.Println(tsv)
			if *outDir != "" {
				if err := os.MkdirAll(*outDir, 0o755); err != nil {
					return err
				}
				path := filepath.Join(*outDir, fmt.Sprintf("%s_%s.tsv", spec.ID, m.Name))
				if err := os.WriteFile(path, []byte(tsv), 0o644); err != nil {
					return err
				}
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (want all, %s)", *figFlag, ids)
	}
	return nil
}
