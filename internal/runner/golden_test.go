package runner

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The simulator golden pins what a cell of the paper's experiment
// computes, not just its headline numbers: the event count, every node's
// energy ledger (as float bits) and MAC counters, and every Result field
// of the Centralized and the Global cell on sim_global's 53-node
// deployment (seed 20060704) are folded into one hash per cell and
// compared with testdata/sim_cells.golden. Any change to the order of
// events, random draws, collisions or frames moves a joule somewhere and
// so the hash. The file was generated at the commit before the
// simulator's radio tables and typed event heap went in; a change that
// means to alter the simulation replaces a line with the one the failure
// prints and says why.

// goldenCellConfig is sim_global's cell (KNN k=4, n=4, 53 nodes on 15 s
// epochs, seed 20060704) cut short so the two cells take about two
// seconds side by side: ten rounds of Centralized, three of Global, whose
// first rounds (every sensor learning the network's first windows) are
// the expensive ones.
func goldenCellConfig(algo Algorithm, length time.Duration) Config {
	cfg := Config{
		Algo: algo, Ranker: RankKNN, K: 4, N: 4, WindowSamples: 4,
		Nodes: 53, Period: 15 * time.Second, Duration: length,
		Seeds: []uint64{20060704}, Workers: 1, AccuracyEvery: 1, WarmupRounds: 2,
	}
	cfg.applyDefaults()
	return cfg
}

// goldenCells names the pinned cells.
func goldenCells() map[string]Config {
	return map[string]Config{
		"centralized53": goldenCellConfig(AlgoCentralized, 150*time.Second),
		"global53":      goldenCellConfig(AlgoGlobal, 45*time.Second),
	}
}

// hashFields folds every int and float field of a struct into h, floats
// by their bits; nested structs (Result.Config) are skipped.
func hashFields(h hash.Hash, v any) {
	rv := reflect.ValueOf(v)
	var b [8]byte
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			binary.BigEndian.PutUint64(b[:], math.Float64bits(f.Float()))
		case reflect.Int, reflect.Int64:
			binary.BigEndian.PutUint64(b[:], uint64(f.Int()))
		default:
			continue
		}
		h.Write(b[:])
	}
}

// goldenCell runs one cell and returns its golden line.
func goldenCell(t testing.TB, name string, cfg Config) string {
	t.Helper()
	run, err := buildSeedRun(cfg, cfg.Seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.execute()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashFields(h, struct{ Events int }{run.sim.Events()})
	for _, n := range run.sim.Nodes() {
		hashFields(h, struct{ ID int }{int(n.ID)})
		hashFields(h, n.Energy())
		hashFields(h, n.Counters())
	}
	hashFields(h, res)
	return fmt.Sprintf("%s %s events=%d frames=%.0f", name, hex.EncodeToString(h.Sum(nil)), run.sim.Events(), res.FramesSent)
}

// readGolden returns the lines of a golden file keyed by their first word.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, _, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			want[name] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestGoldenSimCells(t *testing.T) {
	want := readGolden(t, "testdata/sim_cells.golden")
	for name, cfg := range goldenCells() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got := goldenCell(t, name, cfg); got != want[name] {
				t.Errorf("simulation moved:\n got  %s\n want %s", got, want[name])
			}
		})
	}
}

// renderFigures renders every figure × metric TSV that cmd/expfig prints,
// in its order, each block followed by a blank line as on its stdout.
func renderFigures(t *testing.T, s *Session, scale Scale) string {
	t.Helper()
	var b strings.Builder
	for _, spec := range Figures {
		fig, err := s.Figure(spec, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spec.Metrics {
			b.WriteString(fig.TSV(m.Of, m.Name) + "\n")
		}
	}
	return b.String()
}

// TestFiguresGolden pins every TSV cmd/expfig prints — every figure,
// metric, curve and x value, to the six significant digits a TSV carries
// — at microScale, against testdata/figures_micro.golden. A change that
// means to move a figure replaces the file with the text the failure
// prints and says why.
func TestFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures_micro.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderFigures(t, NewSession(), microScale()); got != string(want) {
		t.Errorf("figures moved; testdata/figures_micro.golden would read:\n%s", got)
	}
}
