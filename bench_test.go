// Ablation benchmarks for the design choices called out in DESIGN.md §5,
// cut from the shared full-scale simulated campaigns. The paper's tables
// and figures are regenerated by cmd/reproduce (one -only ID each) and the
// pipeline's end-to-end cost is measured by ./benchmark; these four
// measure what neither does.
//
// Run them:
//
//	go test -run '^$' -bench Ablation .
//
// Custom metrics attach each ablation's headline numbers so `go test
// -bench` output doubles as a results table.
package snmpv3fp_test

import (
	"net/netip"
	"sync"
	"testing"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/analysis"
	"snmpv3fp/internal/experiments"
	"snmpv3fp/internal/filter"
	"snmpv3fp/internal/scanner"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// sharedEnv builds the full-scale environment once per process. The build
// cost (world generation + four campaigns) is excluded from whichever
// benchmark happens to trigger it.
func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.Shared(1)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	b.ResetTimer()
	return benchEnv
}

// --- Ablation benchmarks (design choices from DESIGN.md §5) ---

// BenchmarkAblationSingleScan quantifies what the second campaign buys.
// Within one snapshot, single-scan alias sets are still internally
// consistent — the cost of skipping the second scan is *staleness*: IPs
// accepted as valid whose identity has already churned, drifted or rebooted
// by the time anyone uses the data. We measure the share of single-scan
// "valid" IPs whose second-campaign observation contradicts the first.
func BenchmarkAblationSingleScan(b *testing.B) {
	e := sharedEnv(b)
	var staleShare float64
	var singleValid, bothValid int
	for i := 0; i < b.N; i++ {
		// Single-scan pipeline: merge scan 1 with itself so every
		// cross-scan consistency check trivially passes.
		single := filter.Run(e.V4Scan1, e.V4Scan1)
		singleValid = len(single.Valid)
		bothValid = len(e.V4Filter.Valid)
		stale := 0
		for _, m := range single.Valid {
			o2, ok := e.V4Scan2.ByIP[m.IP]
			if !ok {
				stale++
				continue
			}
			if string(o2.EngineID) != string(m.EngineID) || o2.EngineBoots != m.Boots[0] {
				stale++
				continue
			}
			d := m.LastReboot[0].Sub(o2.LastReboot())
			if d < 0 {
				d = -d
			}
			if d > filter.RebootThreshold {
				stale++
			}
		}
		staleShare = float64(stale) / float64(singleValid)
	}
	b.ReportMetric(float64(singleValid), "single_scan_valid_ips")
	b.ReportMetric(float64(bothValid), "two_scan_valid_ips")
	b.ReportMetric(staleShare*100, "single_scan_stale_pct")
}

// BenchmarkAblationBinWidth sweeps the last-reboot bin width and reports
// pair precision/recall per width, locating the paper's 10s/20s knee.
func BenchmarkAblationBinWidth(b *testing.B) {
	e := sharedEnv(b)
	truth := map[netip.Addr]int{}
	for _, d := range e.World.Devices {
		for _, a := range d.AllAddrs() {
			truth[a] = d.ID
		}
	}
	for _, bin := range []alias.Binning{alias.BinExact, alias.BinRound, alias.BinDiv20} {
		b.Run(bin.String(), func(b *testing.B) {
			var p, r float64
			for i := 0; i < b.N; i++ {
				sets := alias.Resolve(e.V4Filter.Valid, alias.Variant{Bin: bin, BothScans: true})
				inferred := make([]analysis.AddrSet, 0, len(sets))
				for _, s := range sets {
					as := make(analysis.AddrSet, 0, len(s.Members))
					for _, m := range s.Members {
						as = append(as, m.IP)
					}
					inferred = append(inferred, as)
				}
				p, r = analysis.PrecisionRecall(inferred, truth)
			}
			b.ReportMetric(p, "precision")
			b.ReportMetric(r, "recall")
		})
	}
}

// BenchmarkAblationTupleKey contrasts alias resolution keyed on the engine
// ID alone with the full (engine ID, boots, last reboot) key: the former
// merges the cloned-firmware populations into giant false sets.
func BenchmarkAblationTupleKey(b *testing.B) {
	e := sharedEnv(b)
	var idOnlyLargest, fullLargest, falseMerges int
	for i := 0; i < b.N; i++ {
		// Engine-ID-only grouping: one pass building size and ground-truth
		// device counts per group.
		sizes := map[string]int{}
		devs := map[string]map[int]bool{}
		for _, m := range e.V4Filter.Valid {
			k := m.EngineIDKey()
			sizes[k]++
			if d := e.World.DeviceAt(m.IP); d != nil {
				if devs[k] == nil {
					devs[k] = map[int]bool{}
				}
				devs[k][d.ID] = true
			}
		}
		idOnlyLargest, falseMerges = 0, 0
		for k, n := range sizes {
			if n > idOnlyLargest {
				idOnlyLargest = n
			}
			if len(devs[k]) > 1 {
				falseMerges++
			}
		}
		fullLargest = 0
		for _, s := range e.V4Sets {
			if s.Size() > fullLargest {
				fullLargest = s.Size()
			}
		}
	}
	b.ReportMetric(float64(idOnlyLargest), "largest_idonly_set")
	b.ReportMetric(float64(fullLargest), "largest_full_key_set")
	b.ReportMetric(float64(falseMerges), "idonly_false_merged_groups")
}

// BenchmarkAblationScanOrder compares permuted against linear target order:
// the permutation spreads probes so no /16 sees a burst.
func BenchmarkAblationScanOrder(b *testing.B) {
	prefixes := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/12")}
	window := 4096
	burst := func(next func() (netip.Addr, bool)) int {
		counts := map[uint32]int{}
		maxBurst := 0
		for i := 0; i < window; i++ {
			a, ok := next()
			if !ok {
				break
			}
			k := iputilV4ToUint(a) >> 16
			counts[k]++
			if counts[k] > maxBurst {
				maxBurst = counts[k]
			}
		}
		return maxBurst
	}
	var permBurst, linBurst int
	for i := 0; i < b.N; i++ {
		space, err := scanner.NewPrefixSpace(prefixes, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		permBurst = burst(space.Next)
		lin := uint32(0)
		linBurst = burst(func() (netip.Addr, bool) {
			a := netip.AddrFrom4([4]byte{10, byte(lin >> 16), byte(lin >> 8), byte(lin)})
			lin++
			return a, true
		})
	}
	b.ReportMetric(float64(permBurst), "perm_max_per_16")
	b.ReportMetric(float64(linBurst), "linear_max_per_16")
}

func iputilV4ToUint(a netip.Addr) uint32 {
	b4 := a.As4()
	return uint32(b4[0])<<24 | uint32(b4[1])<<16 | uint32(b4[2])<<8 | uint32(b4[3])
}
