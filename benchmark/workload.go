package main

import (
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/store"
)

// Load is one process with no more goroutines than this machine has cores:
// two scan workers, or two closed-loop query clients, or one writer beside
// one reader.
const (
	scanWorkers  = 2
	queryClients = 2
)

type kind int

const (
	// pipeline: the timed region repeats whole cycles of scan → collect →
	// durable ingest → flush/compact → close/open, then recovers and queries
	// the last cycle's store a few times more.
	pipeline kind = iota
	// queryStatic: one cycle builds the store during set-up; the timed
	// region repeats units of the query mix with the writer idle.
	queryStatic
	// queryLive: as queryStatic, but each timed unit ingests a slice of a
	// further campaign while one reader queries.
	queryLive
)

// workload names one set of inputs. The five are declared in
// BENCHMARK.json with the same names and reasons.
type workload struct {
	Name string
	Why  string
	kind kind
	// world builds the simulated Internet the campaigns scan.
	world func(sz *sizes, seed int64) netsim.Config
	// campaigns per store build.
	campaigns func(sz *sizes) int
	// retries is scanner.Config.Retries.
	retries int
	// mix is the request mix of the query phase.
	mix []mixEntry
}

var workloads = []workload{
	{
		Name: "scan-sparse",
		Why:  "sparse address space, under 0.2% of probes answered: the scan engine does over 80% of the work and the store almost none",
		kind: pipeline,
		world: func(sz *sizes, seed int64) netsim.Config {
			return sz.sparseWorld(seed)
		},
		campaigns: func(sz *sizes) int { return sz.sparseCampaigns },
		mix:       staticMix,
	},
	{
		Name: "pipeline-dense",
		Why:  "calibrated dense world with production store options: WAL, fsync, flush and background compaction do most of the work",
		kind: pipeline,
		world: func(sz *sizes, seed int64) netsim.Config {
			return sz.denseWorld(seed)
		},
		campaigns: func(sz *sizes) int { return sz.denseCampaigns },
		mix:       staticMix,
	},
	{
		Name: "pipeline-hostile",
		Why:  "the dense world under the full fault profile with one retry pass: loss, duplicates, truncation, off-path and msgID rejection paths",
		kind: pipeline,
		world: func(sz *sizes, seed int64) netsim.Config {
			cfg := sz.denseWorld(seed)
			cfg.Faults = netsim.FullHostileProfile()
			return cfg
		},
		campaigns: func(sz *sizes) int { return sz.hostileCampaigns },
		retries:   1,
		mix:       staticMix,
	},
	{
		Name: "query-static",
		Why:  "read tier alone over a fixed five-segment store larger than both caches: cold, warm and missing keys, writer idle",
		kind: queryStatic,
		world: func(sz *sizes, seed int64) netsim.Config {
			return sz.denseWorld(seed)
		},
		campaigns: func(sz *sizes) int { return sz.queryCampaigns },
		mix:       staticMix,
	},
	{
		Name: "query-live",
		Why:  "one reader beside one writer: every ingest batch invalidates the view, so snapshot rebuilds and cache flushes show",
		kind: queryLive,
		world: func(sz *sizes, seed int64) netsim.Config {
			return sz.denseWorld(seed)
		},
		campaigns: func(sz *sizes) int { return sz.queryCampaigns },
		mix:       liveMix,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// buildOptions returns the options a workload builds its store with:
// production defaults for the pipeline workloads, whose build is what they
// time; a fixed layout for the query workloads, whose set-up must not depend
// on compactor timing.
func (w *workload) buildOptions(sz *sizes) store.Options {
	if w.kind == pipeline {
		return store.Options{}
	}
	return store.Options{DisableCompaction: true, FlushThreshold: sz.staticFlush}
}

// serveOptions returns the options the built store is reopened with for the
// query phase: the build's, except that query-live's writer runs under
// production defaults.
func (w *workload) serveOptions(sz *sizes) store.Options {
	if w.kind == queryLive {
		return store.Options{}
	}
	return w.buildOptions(sz)
}

// sizes scales the workloads. full is what BENCHMARK.json's command runs;
// the self-test substitutes miniature ones.
type sizes struct {
	sparseWorld func(seed int64) netsim.Config
	denseWorld  func(seed int64) netsim.Config

	sparseCampaigns  int
	denseCampaigns   int
	hostileCampaigns int
	queryCampaigns   int

	// staticFlush is query-static's FlushThreshold, chosen so a campaign
	// is three full memtables and a remainder: five segments after the
	// campaign-1 compaction.
	staticFlush int
	// unitQueries is the requests of one query unit; a pipeline run's tail
	// makes tailUnits of them, after at least tailRecoveries recoveries.
	unitQueries    int
	tailUnits      int
	tailRecoveries int
	// liveSlice is how many IPs of the next campaign a query-live unit
	// ingests.
	liveSlice int
	// readback is how many IPs are compared before and after a reopen.
	readback int
	// minUnits is the least number of timed cycles or units a run makes.
	minUnits int
	// setups is how many times a pipeline workload generates its world,
	// and a query workload recovers its store, during set-up.
	setups int
	// microOps sizes the traced run's bare-loop measurements; loopbackOps
	// the real-socket one.
	microOps    int
	loopbackOps int
}

// scaleDense is how much of netsim.DefaultConfig's population the dense
// world keeps. At 0.4 a campaign is ~90k responders: 22 memtable flushes
// and 4–5 whole-store compactions under production options, and a query
// working set (~50 MB of /v1/ip bodies) above the 32 MiB result cache and
// the 16 MiB block cache — while a two-campaign cycle still fits three
// times into a run. PrefixSlack is left alone: below the stock 10–11 the
// generator's rejection-sampled address assignment can fail to terminate.
const scaleDense = 0.4

func scaledDefault(seed int64, f float64) netsim.Config {
	cfg := netsim.DefaultConfig(seed)
	scale := func(n *int) {
		*n = int(float64(*n) * f)
		if *n < 1 {
			*n = 1
		}
	}
	for _, n := range []*int{
		&cfg.TransitASes, &cfg.EyeballASes, &cfg.HostingASes,
		&cfg.CPEDevices, &cfg.Servers, &cfg.IoTDevices,
		&cfg.V6CPE, &cfg.HitlistFiller, &cfg.LoadBalancers,
		&cfg.BugDevices, &cfg.SharedIDPerGroup,
	} {
		scale(n)
	}
	return cfg
}

var fullSizes = sizes{
	sparseWorld: func(seed int64) netsim.Config {
		cfg := netsim.TinyConfig(seed)
		cfg.PrefixSlack = 500 // ~19.8M targets, ~12.5k responders
		return cfg
	},
	denseWorld:       func(seed int64) netsim.Config { return scaledDefault(seed, scaleDense) },
	sparseCampaigns:  3,
	denseCampaigns:   2,
	hostileCampaigns: 2,
	queryCampaigns:   2,
	staticFlush:      26000,
	unitQueries:      200000,
	liveSlice:        20000,
	readback:         1000,
	tailUnits:        3,
	tailRecoveries:   2,
	minUnits:         2,
	setups:           5,
	microOps:         1000000,
	loopbackOps:      20000,
}
