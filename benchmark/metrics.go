package main

import (
	"math"
	"slices"
)

// metricDef declares one reported metric. BENCHMARK.json carries the same
// table; the self-test asserts the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare reports it as regressed. Per-layer
	// metrics carry none.
	Bound float64
}

// endToEnd lists what a user of the pipeline sees. Every workload runs
// every phase (scan, ingest, recover, query), so every workload reports all
// of them; README.md says which workload each metric is the headline of.
//
// The bounds are what this machine resolves, not what one would like: ten
// runs of one commit spread (first to third quartile) over 5–13% of their
// median on every timing, so a bound of a tenth would call noise a
// regression. disk_bytes_per_sample is a count and repeats to 0.4% across
// seeds. query_p999_us is not here: its spread reached 70% and it is
// reported per layer as serve.mix.p999_us.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"probes_per_s", "1/s", "higher", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"publish_s", "s", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p99_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"disk_bytes_per_sample", "B", "lower", 0.02},
}

// queryClasses are the request classes of the query mix, in the order the
// per-layer table lists them.
var queryClasses = []string{"ip_cold", "ip_warm", "ip_miss", "device", "reboots", "vendors", "stats"}

// perLayer lists what the traced run derives, prefixed by module name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "scanner.scan_s", Unit: "s", Better: "lower"},
		{Name: "scanner.probes", Unit: "count", Better: "lower"},
		{Name: "scanner.responses", Unit: "count", Better: "higher"},
		{Name: "scanner.response_ratio", Unit: "ratio", Better: "higher"},
		{Name: "scanner.retried", Unit: "count", Better: "lower"},
		{Name: "scanner.offpath", Unit: "count", Better: "lower"},
		{Name: "scanner.ns_per_probe", Unit: "ns", Better: "lower"},
		{Name: "scanner.allocs_per_kprobe", Unit: "count", Better: "lower"},
		{Name: "scanner.bytes_per_probe", Unit: "B", Better: "lower"},
		{Name: "scanner.permute_ns_per_target", Unit: "ns", Better: "lower"},
		{Name: "scanner.obs_ns_per_probe", Unit: "ns", Better: "lower"},
		{Name: "snmp.encode_ns_per_probe", Unit: "ns", Better: "lower"},
		{Name: "snmp.parse_ns_per_response", Unit: "ns", Better: "lower"},
		{Name: "netsim.generate_s", Unit: "s", Better: "lower"},
		{Name: "netsim.floor_ns_per_probe", Unit: "ns", Better: "lower"},
		{Name: "core.collect_s", Unit: "s", Better: "lower"},
		{Name: "core.datagrams", Unit: "count", Better: "lower"},
		{Name: "core.ips", Unit: "count", Better: "higher"},
		{Name: "core.rejected_ratio", Unit: "ratio", Better: "lower"},
		{Name: "core.ns_per_datagram", Unit: "ns", Better: "lower"},
		{Name: "core.allocs_per_datagram", Unit: "count", Better: "lower"},
		{Name: "store.ingest_s", Unit: "s", Better: "lower"},
		{Name: "store.ns_per_sample", Unit: "ns", Better: "lower"},
		{Name: "store.allocs_per_sample", Unit: "count", Better: "lower"},
		{Name: "store.bytes_per_sample", Unit: "B", Better: "lower"},
		{Name: "store.wal_bytes_per_sample", Unit: "B", Better: "lower"},
		{Name: "store.wal_fsyncs", Unit: "count", Better: "lower"},
		{Name: "store.fsync_s", Unit: "s", Better: "lower"},
		{Name: "store.flushes", Unit: "count", Better: "lower"},
		{Name: "store.flush_s", Unit: "s", Better: "lower"},
		{Name: "store.compactions", Unit: "count", Better: "lower"},
		{Name: "store.compact_s", Unit: "s", Better: "lower"},
		{Name: "store.write_amp", Unit: "ratio", Better: "lower"},
		{Name: "store.open_s", Unit: "s", Better: "lower"},
		{Name: "store.segments", Unit: "count", Better: "lower"},
		{Name: "store.snapshot_rebuilds", Unit: "count", Better: "lower"},
		{Name: "store.snapshot_rebuild_us", Unit: "us", Better: "lower"},
		{Name: "store.latest_ns", Unit: "ns", Better: "lower"},
		{Name: "store.latest_miss_ns", Unit: "ns", Better: "lower"},
		{Name: "store.seg_bytes_per_query", Unit: "B", Better: "lower"},
		{Name: "store.block_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	}
	for _, c := range queryClasses {
		defs = append(defs,
			metricDef{Name: "serve." + c + ".p50_us", Unit: "us", Better: "lower"},
			metricDef{Name: "serve." + c + ".p99_us", Unit: "us", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "serve.mix.p999_us", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "serve.allocs_per_query", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.bytes_out_per_query", Unit: "B", Better: "lower"},
		metricDef{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.loopback_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	)
	// The ledger: each layer's self time as a share of the timed region,
	// and how much of the region the spans account for in total.
	for _, l := range ledgerLayers {
		defs = append(defs, metricDef{Name: "ledger." + l + "_pct", Unit: "%", Better: "lower"})
	}
	defs = append(defs, metricDef{Name: "ledger.closure_pct", Unit: "%", Better: "higher"})
	return defs
}

// ledgerLayers are the span-name prefixes the ledger groups self time by.
// "harness" is the benchmark's own work between layer calls.
var ledgerLayers = []string{"netsim", "scanner", "core", "store", "serve", "harness"}

// value is one reported number with the size of the sample behind it: an
// end-to-end metric is the median of the run's N samples.
type value struct {
	V    float64
	Unit string
	N    int
}

// median returns the middle of xs (mean of the two middles for even n);
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method,
// matching Python's statistics.quantiles(xs, n=4); for fewer than two
// points both equal the median.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// percentile returns the p-quantile (0..1) of an ascending-sorted sample by
// nearest rank; 0 for an empty sample.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))])
}
