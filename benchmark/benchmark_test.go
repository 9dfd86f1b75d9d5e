package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"snmpv3fp/internal/netsim"
)

// miniSizes shrinks every workload to a fraction of a second: the same
// phases, calls and checks over a few thousand responders.
func miniSizes() *sizes {
	world := func(seed int64) netsim.Config {
		cfg := netsim.TinyConfig(seed)
		cfg.TransitASes, cfg.CPEDevices, cfg.Servers, cfg.IoTDevices = 12, 600, 80, 60
		return cfg
	}
	return &sizes{
		sparseWorld: world, denseWorld: world,
		sparseCampaigns: 2, denseCampaigns: 2, hostileCampaigns: 2, queryCampaigns: 2,
		staticFlush: 1000, unitQueries: 2000, tailUnits: 2, tailRecoveries: 1, liveSlice: 1000,
		readback: 100, minUnits: 2, setups: 1, microOps: 20000, loopbackOps: 100,
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON keeps BENCHMARK.json and the tables
// the program reports from saying the same thing.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, runSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, implemented {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: declared %+v, implemented %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: declared %+v, implemented %+v", i, got, d)
		}
	}
}

// TestWorkloadsEmitEveryDeclaredMetric runs all five workloads, untraced
// and traced, at miniature sizes.
func TestWorkloadsEmitEveryDeclaredMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, d := range b.EndToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range b.PerLayer {
		units[d.Name] = d.Unit
	}
	for name := range units {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", name)
		}
	}
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		digests := map[string]bool{}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, options{seed: 7, seconds: 0.05, trace: traced, dir: dir, sz: miniSizes()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", w.Name, traced, res.Attempted, res.Failed, res.Notes)
			}
			digests[res.Digest] = true
			want := len(b.EndToEnd)
			if traced {
				want = len(b.PerLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), want)
			}
			for name, v := range res.Metrics {
				if units[name] == "" || units[name] != v.Unit {
					t.Errorf("%s trace=%v: %s reported with unit %q, declared %q", w.Name, traced, name, v.Unit, units[name])
				}
				if math.IsNaN(v.V) || math.IsInf(v.V, 0) || (!traced && v.V <= 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, traced, name, v.V)
				}
			}
			var line driverResult
			if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil || !line.Correct || len(line.Metrics) != want {
				t.Errorf("%s trace=%v: result line %s: %v", w.Name, traced, driverLine(res), err)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, w.Name+".trace.jsonl")); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
				if c := res.Metrics["ledger.closure_pct"].V; w.kind == pipeline && c < 80 {
					t.Errorf("%s: layer self times cover %.1f%% of the timed region", w.Name, c)
				}
			}
		}
		if len(digests) != 1 {
			t.Errorf("%s: digests differ between two runs of seed 7: %v", w.Name, digests)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("store directory %s left behind", e.Name())
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("three points: %v %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, qps []float64) string {
		rec := workloadRecord{Name: "pipeline-dense", Summary: map[string]summary{}}
		for metric, xs := range map[string][]float64{"wall_s": wall, "query_qps": qps} {
			q1, q3 := quartiles(xs)
			rec.Summary[metric] = summary{Median: median(xs), Q1: q1, Q3: q3, Values: xs}
		}
		buf, err := json.Marshal(resultsFile{Workloads: []workloadRecord{rec}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{10, 10.1, 10.2}, []float64{1000, 1010, 1020})
	same := write("b.json", []float64{10.3, 10.2, 10.4}, []float64{990, 1000, 1005})
	slower := write("c.json", []float64{13.5, 13.6, 13.7}, []float64{1000, 1010, 1020})
	fewer := write("d.json", []float64{10, 10.1, 10.2}, []float64{700, 710, 720})
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, c := range []struct {
		path string
		want bool
	}{{same, false}, {slower, true}, {fewer, true}} {
		got, err := compareFiles(null, base, c.path)
		if err != nil || got != c.want {
			t.Errorf("compare with %s: regressed=%v err=%v, want %v", filepath.Base(c.path), got, err, c.want)
		}
	}
}
