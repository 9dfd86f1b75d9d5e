// Command benchmark is the repository's pipeline benchmark: five named
// workloads drive probes sent → samples durable → answers served through
// the public functions of netsim, scanner, core, store and serve, report
// end-to-end metrics from untraced runs, and derive a per-layer cost ledger
// from a traced run. README.md defines every workload and metric.
//
// One workload, once, in this process (what BENCHMARK.json's command runs):
//
//	go run ./benchmark --workload pipeline-dense --seed 7 --seconds 20 --trace 0
//
// Every workload, -runs untraced runs and one traced run each, every run a
// fresh subprocess, summarised into results.json under -dir:
//
//	go run ./benchmark
//
// Compare two such sets:
//
//	go run ./benchmark -compare A/results.json B/results.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runSeconds is how long one run's timed region lasts unless -seconds says
// otherwise; BENCHMARK.json's run_seconds is the same number.
const runSeconds = 20

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run once in this process; \"all\" runs every workload in subprocesses")
	seed := flag.Int64("seed", 7, "seed of world generation, scan seeds and the query PRNG")
	seconds := flag.Float64("seconds", runSeconds, "length of a run's timed region")
	trace := flag.Int("trace", 0, "1 records MemStats and registry deltas per span, reports per-layer metrics and writes <workload>.trace.jsonl")
	runs := flag.Int("runs", 5, "untraced runs per workload when running all")
	dir := flag.String("dir", filepath.Join("benchmark", "out"), "parent directory of the store directories, trace files and results.json")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments; exits 1 on a regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results.json paths"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1"))
	}
	if *workloadFlag == "all" {
		if err := runAll(*seed, *seconds, *runs, *dir); err != nil {
			fatal(err)
		}
		return
	}
	w := findWorkload(*workloadFlag)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
	}
	res, err := runWorkload(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, sz: &fullSizes})
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printResult prints every metric by name with its unit and sample count,
// the ledger of a traced run, the campaign digest and the check tally, and
// last the one-line JSON object the driver reads.
func printResult(res *result) {
	fmt.Printf("workload %s seed %d trace %v\n", res.Workload, res.Seed, res.Trace)
	fmt.Printf("queries: in-process Server.ServeHTTP into a discarding writer, no socket; closed loop, %d clients\n", queryClients)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("  %-32s %20s %-6s n=%d", d.Name, strconv.FormatFloat(v.V, 'f', -1, 64), v.Unit, v.N)
		if xs := res.Samples[d.Name]; len(xs) > 1 {
			fmt.Printf("  samples %.6g", xs)
		}
		fmt.Println()
	}
	if res.Trace {
		fmt.Printf("ledger: self time per layer over the timed region (%.3f s)\n", res.Wall.Seconds())
		for _, l := range ledgerLayers {
			fmt.Printf("  %-10s %9.3f s %6.2f %%\n", l, res.Ledger[l].Seconds(), res.Metrics["ledger."+l+"_pct"].V)
		}
	}
	fmt.Printf("digest %s\n", res.Digest)
	fmt.Printf("checks: attempted %d failed %d\n", res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	fmt.Println(driverLine(res))
}

// driverResult is the contract's result object.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLine(res *result) string {
	out := driverResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for name, v := range res.Metrics {
		out.Metrics[name] = driverMetric{Value: v.V, Unit: v.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err) // NaN or Inf in a metric: a bug in the benchmark
	}
	return string(line)
}

// runRecord is one subprocess run as results.json keeps it.
type runRecord struct {
	Seed      int64                   `json:"seed"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Digest    string                  `json:"digest"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// summary is one metric over a workload's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadRecord struct {
	Name    string             `json:"name"`
	Runs    []runRecord        `json:"runs"`
	Traced  *runRecord         `json:"traced"`
	Summary map[string]summary `json:"summary"`
	// FailedShare is failed ÷ attempted over every run of the workload.
	FailedShare float64 `json:"failed_share"`
}

type resultsFile struct {
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadRecord `json:"workloads"`
	// Claim is null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// runAll runs every workload in fresh subprocesses of this binary, so peak
// RSS and GC state belong to one run, and writes results.json.
func runAll(seed int64, seconds float64, runs int, dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out := resultsFile{Env: readEnvironment(dir), Seed: seed, Seconds: seconds}
	recs := make([]workloadRecord, len(workloads))
	attempted, bad := make([]int, len(workloads)), make([]int, len(workloads))
	// Round-robin over the workloads, the traced round last: when the
	// machine slows for a few minutes it costs each workload one run, not
	// one workload all of its runs.
	for run := 0; run <= runs; run++ {
		traced := run == runs
		for i, w := range workloads {
			rec := &recs[i]
			r, err := runChild(exe, w.Name, seed, seconds, traced, dir)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			attempted[i], bad[i] = attempted[i]+r.Attempted, bad[i]+r.Failed
			if len(rec.Runs) > 0 && r.Digest != rec.Runs[0].Digest {
				bad[i]++
				fmt.Printf("%s: digest %s differs from the first run's %s for the same seed\n", w.Name, r.Digest, rec.Runs[0].Digest)
			}
			if traced {
				rec.Traced = r
			} else {
				rec.Runs = append(rec.Runs, *r)
			}
		}
	}
	failed := false
	for i, w := range workloads {
		rec := recs[i]
		rec.Name, rec.Summary = w.Name, map[string]summary{}
		rec.FailedShare = float64(bad[i]) / float64(max(attempted[i], 1))
		failed = failed || bad[i] > 0
		fmt.Printf("\n== %s: %d untraced runs, failed_share %g\n", w.Name, len(rec.Runs), rec.FailedShare)
		for _, d := range endToEnd {
			var xs []float64
			for _, r := range rec.Runs {
				xs = append(xs, r.Metrics[d.Name].Value)
			}
			q1, q3 := quartiles(xs)
			s := summary{Unit: d.Unit, Median: median(xs), Q1: q1, Q3: q3, Values: xs}
			rec.Summary[d.Name] = s
			fmt.Printf("  %-24s median %14.6g %-6s quartiles %.6g .. %.6g  n=%d\n", d.Name, s.Median, d.Unit, q1, q3, len(xs))
		}
		out.Workloads = append(out.Workloads, rec)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "results.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote", path)
	if failed {
		return fmt.Errorf("checks failed; see the runs above")
	}
	return nil
}

// runChild runs one workload once in a subprocess, echoes its report and
// parses the digest line and the final JSON line.
func runChild(exe, workload string, seed int64, seconds float64, traced bool, dir string) (*runRecord, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", t, "-dir", dir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var dr driverResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dr); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	rec := &runRecord{Seed: seed, Attempted: dr.Attempted, Failed: dr.Failed, Metrics: dr.Metrics}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "digest "); ok {
			rec.Digest = d
		}
	}
	return rec, nil
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartiles, how much worse B is than A, the bound, and a
// verdict: regressed (worse by more than the bound), unresolved (either
// set's quartile spread is wider than the bound, so the sets cannot tell),
// ok otherwise.
func compareFiles(w *os.File, pathA, pathB string) (regressed bool, err error) {
	var a, b resultsFile
	for _, f := range []struct {
		path string
		into *resultsFile
	}{{pathA, &a}, {pathB, &b}} {
		buf, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(buf, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	byName := map[string]workloadRecord{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	fmt.Fprintf(w, "%-17s %-22s %13s %25s %13s %25s %8s %6s  %s\n", "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			sa, okA := wa.Summary[d.Name]
			sb, okB := wb.Summary[d.Name]
			if !okA || !okB || sa.Median == 0 {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			case spread > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-17s %-22s %13.6g %12.6g..%-11.6g %13.6g %12.6g..%-11.6g %+7.1f%% %5.0f%%  %s\n",
				wa.Name, d.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, worse*100, d.Bound*100, verdict)
		}
		if wb.FailedShare > wa.FailedShare {
			fmt.Fprintf(w, "%-17s %-22s %13g %38s %13g %38s  regressed\n", wa.Name, "failed_share", wa.FailedShare, "", wb.FailedShare, "")
			regressed = true
		}
	}
	return regressed, nil
}
