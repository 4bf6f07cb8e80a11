package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"offchip/internal/workloads"
)

// TestMain lets the test binary serve as the fleet's worker, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

// tiny is the test's workload size: two applications, one mix, short
// traces.
var tiny = size{
	suiteCap: 200, mixCap: 200, fleetCap: 100,
	apps:  []string{"art", "apsi"},
	mixes: workloads.DefaultPhaseMixes()[:1],
}

func tinyRun(t *testing.T, workload string, traced bool, golden map[string]string) *result {
	t.Helper()
	cfg := config{
		workload: workload, seed: 5, seconds: 0, trace: traced,
		size: tiny, golden: golden, outDir: t.TempDir(),
	}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	return res
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric tables
// the benchmark prints from in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
		}
		for i := range file {
			if i < len(code) && (file[i].Name != code[i].name || file[i].Unit != code[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestEveryMetricPrints runs every workload at a tiny size, untraced and
// traced, and checks that each run is correct and prints every metric
// with its unit. The traced run's digests must reproduce the untraced
// run's: the traced pipeline calls each layer itself, so this is the check
// that it does what runner.Run does.
func TestEveryMetricPrints(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			plain := tinyRun(t, w, false, nil)
			traced := tinyRun(t, w, true, plain.digests)
			for _, r := range []struct {
				res  *result
				want []struct{ name, unit string }
			}{{plain, endToEnd}, {traced, perLayer}} {
				if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted == 0 {
					t.Errorf("run not correct: %d of %d jobs failed", r.res.Failed, r.res.Attempted)
				}
				if len(r.res.Metrics) != len(r.want) {
					t.Errorf("%d metrics printed, want %d", len(r.res.Metrics), len(r.want))
				}
				for _, m := range r.want {
					got, ok := r.res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
				}
			}
			if plain.Metrics["wall_s"].Value <= 0 || plain.Metrics["setup_s"].Value <= 0 {
				t.Errorf("wall_s and setup_s must be positive: %+v", plain.Metrics)
			}
			if got := traced.Metrics["sim.events"].Value; got <= 0 {
				t.Errorf("traced run simulated no events")
			}
		})
	}
}

// TestCorruptedDigestFails checks that an output differing from its
// expected digest counts as a failed job, never as a fast one.
func TestCorruptedDigestFails(t *testing.T) {
	plain := tinyRun(t, "mix-replay", false, nil)
	golden := map[string]string{}
	for id, d := range plain.digests {
		golden[id] = d
	}
	for id := range golden {
		golden[id] = "corrupted"
		break
	}
	res := tinyRun(t, "mix-replay", false, golden)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestGoldenCoversEveryJob checks that golden.json holds a digest for every
// job of every workload at the golden seed, so the canaries and any run at
// that seed are checked against recorded outputs.
func TestGoldenCoversEveryJob(t *testing.T) {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, w := range workloadNames {
		for _, s := range jobSpecs(w, goldenSeed, fullSize) {
			n++
			if _, ok := g[s.Normalized().ID()]; !ok {
				t.Errorf("golden.json lacks %s", s.ID())
			}
		}
	}
	if len(g) != n {
		t.Errorf("golden.json has %d digests, the workloads %d jobs", len(g), n)
	}
}
