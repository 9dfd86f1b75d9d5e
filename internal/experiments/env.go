// Package experiments reproduces every table and figure of the paper's
// evaluation over the simulated Internet. Each experiment is a function of
// a shared Env — the world plus the four scan campaigns, the filtering
// reports, and the alias sets — mirroring how all of the paper's analyses
// are cut from the same two IPv4 and two IPv6 campaigns.
package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"snmpv3fp/internal/alias"
	"snmpv3fp/internal/core"
	"snmpv3fp/internal/datasets"
	"snmpv3fp/internal/filter"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/route"
	"snmpv3fp/internal/scanner"
)

// Env bundles everything the experiments consume.
type Env struct {
	World    *netsim.World
	Datasets *datasets.Router

	// The four campaigns (paper Table 1): IPv6 on (virtual) April 13 and
	// 14, IPv4 starting April 16 and 22.
	V4Scan1, V4Scan2 *core.Campaign
	V6Scan1, V6Scan2 *core.Campaign

	// Filtering reports per family (Section 4.4).
	V4Filter, V6Filter *filter.Report

	// Alias sets per family and combined (Section 5.1), under the default
	// variant.
	V4Sets       []*alias.Set
	V6Sets       []*alias.Set
	CombinedSets []*alias.Set

	// RouterSets are combined sets with at least one member in the router
	// datasets (Section 6.1's 347k routers).
	RouterSets []*alias.Set

	// RouterAddrs4 / RouterAddrs6 are the dataset unions (Table 2).
	RouterAddrs4 map[netip.Addr]bool
	RouterAddrs6 map[netip.Addr]bool

	// Routes maps IPs to origin ASes by longest-prefix match over the
	// world's announced prefixes — standing in for the paper's BGP-derived
	// IP-to-AS mapping.
	Routes *route.Table
}

// Rates used by the paper.
const (
	v4Rate = 5000
	v6Rate = 20000
)

// Options tunes how the campaigns are executed. The measurement *results*
// are independent of these knobs — the sharded engine is deterministic
// under the virtual clock for any worker count — only wall-clock cost
// changes.
type Options struct {
	// Workers is the scan engine worker count per campaign; 0 selects one
	// worker per available CPU (capped at 8).
	Workers int
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
}

// NewEnv generates the world and runs the full measurement pipeline with
// default execution options.
func NewEnv(cfg netsim.Config) (*Env, error) {
	return NewEnvOpts(cfg, Options{})
}

// NewEnvOpts is NewEnv with explicit execution options.
func NewEnvOpts(cfg netsim.Config, opts Options) (*Env, error) {
	opts.fill()
	w := netsim.Generate(cfg)
	e := &Env{World: w, Datasets: datasets.Build(w)}
	e.Routes = buildRoutes(w)
	day := 24 * time.Hour
	start := cfg.StartTime

	hitlist := w.HitlistV6()
	prefixes := w.ScanPrefixes4()

	var err error
	// IPv6 scan 1 and 2 (April 13 / 14).
	w.Clock.Set(start.Add(12 * day))
	if e.V6Scan1, err = runList(w, hitlist, v6Rate, cfg.Seed+101, opts); err != nil {
		return nil, err
	}
	w.Clock.Set(start.Add(13 * day))
	if e.V6Scan2, err = runList(w, hitlist, v6Rate, cfg.Seed+102, opts); err != nil {
		return nil, err
	}
	// IPv4 scan 1 and 2 (April 16 / 22).
	w.Clock.Set(start.Add(15 * day))
	if e.V4Scan1, err = runPrefixes(w, prefixes, v4Rate, cfg.Seed+103, opts); err != nil {
		return nil, err
	}
	w.Clock.Set(start.Add(21 * day))
	if e.V4Scan2, err = runPrefixes(w, prefixes, v4Rate, cfg.Seed+104, opts); err != nil {
		return nil, err
	}

	e.V4Filter = filter.Run(e.V4Scan1, e.V4Scan2)
	e.V6Filter = filter.Run(e.V6Scan1, e.V6Scan2)

	e.V4Sets = alias.Resolve(e.V4Filter.Valid, alias.Default)
	e.V6Sets = alias.Resolve(e.V6Filter.Valid, alias.Default)
	combined := make([]*filter.Merged, 0, len(e.V4Filter.Valid)+len(e.V6Filter.Valid))
	combined = append(combined, e.V4Filter.Valid...)
	combined = append(combined, e.V6Filter.Valid...)
	e.CombinedSets = alias.Resolve(combined, alias.Default)

	e.RouterAddrs4 = e.Datasets.Union4()
	e.RouterAddrs6 = e.Datasets.Union6()
	for _, s := range e.CombinedSets {
		for _, m := range s.Members {
			if e.RouterAddrs4[m.IP] || e.RouterAddrs6[m.IP] {
				e.RouterSets = append(e.RouterSets, s)
				break
			}
		}
	}
	return e, nil
}

func runPrefixes(w *netsim.World, prefixes []netip.Prefix, rate int, seed int64, opts Options) (*core.Campaign, error) {
	targets, err := scanner.NewPrefixSpace(prefixes, seed)
	if err != nil {
		return nil, err
	}
	return runScan(w, targets, rate, seed, opts)
}

func runList(w *netsim.World, addrs []netip.Addr, rate int, seed int64, opts Options) (*core.Campaign, error) {
	targets, err := scanner.NewListSpace(addrs, seed)
	if err != nil {
		return nil, err
	}
	return runScan(w, targets, rate, seed, opts)
}

func runScan(w *netsim.World, targets scanner.TargetSpace, rate int, seed int64, opts Options) (*core.Campaign, error) {
	w.BeginScan()
	tr := w.NewTransport()
	res, err := scanner.ScanContext(context.Background(), tr, targets, scanner.Config{
		Rate:    rate,
		Batch:   256,
		Timeout: 8 * time.Second,
		Clock:   w.Clock,
		Seed:    seed,
		Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return core.Collect(res), nil
}

// SetVendor fingerprints one alias set via its engine ID.
func SetVendor(s *alias.Set) core.Fingerprint {
	return core.FingerprintEngineID(s.Members[0].EngineID)
}

// buildRoutes assembles the IP-to-AS table from the world's announced
// prefixes, as the paper does from BGP route collectors.
func buildRoutes(w *netsim.World) *route.Table {
	t := &route.Table{}
	for _, a := range w.ASes {
		for _, p := range a.V4Prefixes {
			_ = t.Insert(p, a.Number)
		}
		for _, p := range a.V6Prefixes {
			_ = t.Insert(p, a.Number)
		}
	}
	return t
}

// SetASN maps a set to its AS by longest-prefix match over the announced
// prefixes (the paper's BGP-based IP-to-AS mapping).
func (e *Env) SetASN(s *alias.Set) (uint32, bool) {
	for _, m := range s.Members {
		if asn, ok := e.Routes.Lookup(m.IP); ok {
			return asn, true
		}
	}
	return 0, false
}

// SetRegion maps a set to its AS's region.
func (e *Env) SetRegion(s *alias.Set) (netsim.Region, bool) {
	asn, ok := e.SetASN(s)
	if !ok {
		return "", false
	}
	a := e.World.ASByNumber(asn)
	if a == nil {
		return "", false
	}
	return a.Region, true
}

// sharedEnv caches one Env per (seed, tiny) so the many experiments and
// benchmarks reuse the same campaigns, exactly as the paper cuts every
// analysis from one measurement.
var (
	envMu    sync.Mutex
	envCache = map[string]*Env{}
)

// Shared returns the cached default-scale Env for the seed.
func Shared(seed int64) (*Env, error) {
	return sharedWith(netsim.DefaultConfig(seed), fmt.Sprintf("d%d", seed))
}

// SharedTiny returns the cached tiny Env for the seed (used by tests).
func SharedTiny(seed int64) (*Env, error) {
	return sharedWith(netsim.TinyConfig(seed), fmt.Sprintf("t%d", seed))
}

func sharedWith(cfg netsim.Config, key string) (*Env, error) {
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[key]; ok {
		return e, nil
	}
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	envCache[key] = e
	return e, nil
}
