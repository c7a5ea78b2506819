package loadgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadScenarioDefaults(t *testing.T) {
	sc, err := Load(writeScenario(t, `{
		"name": "minimal",
		"fleet": {"sensors": 1000},
		"traffic": {"duration_s": 2},
		"regime": {"base": 20, "noise": 0.5},
		"detector": {"ranker": "knn", "k": 2, "n": 3, "window_s": 600}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fleet.Attached != 24 {
		t.Errorf("attached default = %d, want 24", sc.Fleet.Attached)
	}
	if sc.Fleet.Dims != 1 {
		t.Errorf("dims default = %d, want 1", sc.Fleet.Dims)
	}
	if sc.Traffic.StepMS != 1000 || sc.Traffic.Senders != 4 || sc.Traffic.LinesPerDatagram != 32 {
		t.Errorf("traffic defaults = %+v", sc.Traffic)
	}
	if sc.Regime.Kind != "steady" {
		t.Errorf("regime kind default = %q, want steady", sc.Regime.Kind)
	}
	if _, err := sc.Ranker(); err != nil {
		t.Errorf("ranker: %v", err)
	}
}

func TestLoadScenarioSmallFleetAttached(t *testing.T) {
	sc, err := Load(writeScenario(t, `{
		"name": "tiny",
		"fleet": {"sensors": 5},
		"traffic": {"duration_s": 1},
		"regime": {"base": 20},
		"detector": {"n": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fleet.Attached != 5 {
		t.Errorf("attached = %d, want min(sensors, 24) = 5", sc.Fleet.Attached)
	}
}

func TestLoadScenarioUnknownFieldRejected(t *testing.T) {
	_, err := Load(writeScenario(t, `{
		"name": "typo",
		"fleet": {"sensors": 10},
		"traffic": {"duration_s": 1},
		"regime": {"base": 20},
		"detector": {"n": 1},
		"bursts": {"rate": 0.1, "offset": 50}
	}`))
	if err == nil || !strings.Contains(err.Error(), "bursts") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:     "v",
			Fleet:    FleetConfig{Sensors: 100},
			Traffic:  TrafficConfig{DurationS: 1},
			Regime:   RegimeConfig{Base: 20},
			Detector: DetectorConfig{Ranker: "nn", N: 1},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "name"},
		{"no sensors", func(s *Scenario) { s.Fleet.Sensors = 0 }, "sensors"},
		{"attached over uint16", func(s *Scenario) { s.Fleet.Attached = 70000 }, "attached"},
		{"no duration", func(s *Scenario) { s.Traffic.DurationS = 0 }, "duration"},
		{"stagger past the step", func(s *Scenario) { s.Fleet.Attached, s.Traffic.StepMS = 1, 50 }, "raise step_ms to at least 100"},
		{"bad regime", func(s *Scenario) { s.Regime.Kind = "chaotic" }, "regime.kind"},
		{"diurnal no period", func(s *Scenario) { s.Regime.Kind = "diurnal" }, "period"},
		{"zero burst offset", func(s *Scenario) { s.Burst = &BurstConfig{Rate: 0.1} }, "offset"},
		{"churn rate", func(s *Scenario) { s.Churn = &ChurnConfig{DownRate: 1.5} }, "down_rate"},
		{"loss rate", func(s *Scenario) { s.Loss = &LossConfig{Rate: -0.1} }, "loss.rate"},
		{"knn no k", func(s *Scenario) { s.Detector = DetectorConfig{Ranker: "knn", N: 1} }, "k must be"},
		{"db no eps", func(s *Scenario) { s.Detector = DetectorConfig{Ranker: "db", N: 1} }, "eps must be"},
		{"no n", func(s *Scenario) { s.Detector.N = 0 }, "detector.n"},
		{"bad mode", func(s *Scenario) { s.Queries.Modes = []string{"turbo"} }, "modes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}
