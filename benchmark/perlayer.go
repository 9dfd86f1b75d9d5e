package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/netip"
	"slices"
	"sync"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/snmp"
)

// agg sums the spans of one name.
type agg struct {
	n      int
	dur    time.Duration
	counts map[string]float64
	units  map[int]bool // distinct cycles or units the spans belong to

	// The deep subset: spans that carry MemStats and registry deltas.
	deepUnits  map[int]bool
	deepCounts map[string]float64
	mallocs    float64
	allocBytes float64
	obs        map[string]float64
}

// collect aggregates the spans accepted by match. It prefers the timed
// region (cycle ≥ 1) and falls back to the set-up build (cycle 0) when the
// timed region made no such call, as query-static makes no ingest.
func (t *tracer) collect(match func(*span) bool) agg {
	timed := false
	for i := range t.spans {
		if s := &t.spans[i]; s.Cycle >= 1 && match(s) {
			timed = true
			break
		}
	}
	a := agg{counts: map[string]float64{}, units: map[int]bool{}, deepUnits: map[int]bool{}, deepCounts: map[string]float64{}, obs: map[string]float64{}}
	for i := range t.spans {
		s := &t.spans[i]
		if !match(s) || (s.Cycle >= 1) != timed || s.Cycle < 0 {
			continue
		}
		a.n++
		a.dur += s.dur()
		a.units[s.Cycle] = true
		for k, v := range s.Counts {
			a.counts[k] += v
		}
		if s.Deep {
			a.deepUnits[s.Cycle] = true
			a.mallocs += float64(s.Mallocs)
			a.allocBytes += float64(s.AllocBytes)
			for k, v := range s.Counts {
				a.deepCounts[k] += v
			}
			for k, v := range s.Obs {
				a.obs[k] += v
			}
		}
	}
	return a
}

// div is a/b, 0 when b is 0: a workload that does not exercise a call
// reports 0 for its ratios.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// microCycle marks the spans of the bare-loop measurements made after the
// timed region; the ledger and the aggregates leave them out.
const microCycle = -1

// perLayer derives every per-layer metric from the traced run's spans, then
// adds the bare-loop measurements no pipeline call isolates.
func (r *run) perLayer(res *result) error {
	tr := r.tr
	m := map[string]float64{}

	scan := tr.collect(named("scanner.scan"))
	units := float64(len(scan.units))
	m["scanner.scan_s"] = div(scan.dur.Seconds(), units)
	m["scanner.probes"] = div(scan.counts["probes"], units)
	m["scanner.responses"] = div(scan.counts["responses"], units)
	m["scanner.response_ratio"] = div(scan.counts["responses"], scan.counts["probes"])
	m["scanner.retried"] = div(scan.counts["retried"], units)
	m["scanner.offpath"] = div(scan.counts["offpath"], units)
	m["scanner.ns_per_probe"] = div(float64(scan.dur), scan.counts["probes"])
	m["scanner.allocs_per_kprobe"] = div(scan.mallocs*1000, scan.deepCounts["probes"])
	m["scanner.bytes_per_probe"] = div(scan.allocBytes, scan.deepCounts["probes"])

	coll := tr.collect(named("core.collect"))
	m["core.collect_s"] = div(coll.dur.Seconds(), float64(len(coll.units)))
	m["core.datagrams"] = div(coll.counts["datagrams"], float64(len(coll.units)))
	m["core.ips"] = div(coll.counts["ips"], float64(len(coll.units)))
	m["core.rejected_ratio"] = div(coll.counts["rejected"], coll.counts["datagrams"])
	m["core.ns_per_datagram"] = div(float64(coll.dur), coll.counts["datagrams"])
	m["core.allocs_per_datagram"] = div(coll.mallocs, coll.deepCounts["datagrams"])

	ing := tr.collect(named("store.ingest"))
	m["store.ingest_s"] = div(ing.dur.Seconds(), float64(len(ing.units)))
	m["store.ns_per_sample"] = div(float64(ing.dur), ing.counts["samples"])
	m["store.allocs_per_sample"] = div(ing.mallocs, ing.deepCounts["samples"])
	m["store.bytes_per_sample"] = div(ing.allocBytes, ing.deepCounts["samples"])
	m["store.wal_bytes_per_sample"] = div(ing.obs["snmpfp_store_wal_bytes_total"], ing.deepCounts["samples"])

	// Registry counters the store moves in the background (the compactor
	// runs beside whatever call is in flight) are summed over every leaf
	// span of a unit, whichever layer it belongs to.
	leaves := tr.collect(func(s *span) bool { return !s.Tail && s.Name != "workload.build" && s.Name != "workload.live_unit" })
	deepUnits := float64(len(leaves.deepUnits))
	m["store.wal_fsyncs"] = div(leaves.obs["snmpfp_store_wal_fsyncs_total"], deepUnits)
	m["store.fsync_s"] = div(leaves.obs["snmpfp_store_fsync_seconds_sum"], deepUnits)
	m["store.flushes"] = div(leaves.obs["snmpfp_store_flushes_total"], deepUnits)
	m["store.flush_s"] = div(leaves.obs[obs.SpanFamily+`{span="store.flush"}_sum`], deepUnits)
	m["store.compactions"] = div(leaves.obs["snmpfp_store_compactions_total"], deepUnits)
	m["store.compact_s"] = div(leaves.obs[obs.SpanFamily+`{span="store.compact"}_sum`], deepUnits)
	m["store.write_amp"] = median(r.writeAmp)

	reopen := tr.collect(named("store.reopen"))
	m["store.open_s"] = div(reopen.dur.Seconds(), float64(reopen.n))
	m["store.segments"] = div(reopen.counts["segments"], float64(reopen.n))

	query := tr.collect(isQuerySpan)
	// A rebuild is timed where the benchmark forces one (Snapshot right
	// after each campaign's Ingest) and counted also where the reader
	// beside a writer saw the version move.
	snap := tr.collect(named("store.snapshot"))
	m["store.snapshot_rebuilds"] = div(float64(snap.n), float64(len(snap.units)))
	if r.versions > 0 {
		m["store.snapshot_rebuilds"] = div(float64(r.versions), float64(len(query.units)))
	}
	m["store.snapshot_rebuild_us"] = median(r.rebuildUs)

	m["store.seg_bytes_per_query"] = div(query.obs["snmpfp_store_seg_query_bytes_total"], query.deepCounts["requests"])
	hits, misses := query.obs["snmpfp_store_block_cache_hits_total"], query.obs["snmpfp_store_block_cache_misses_total"]
	m["store.block_cache_hit_ratio"] = div(hits, hits+misses)
	hits, misses = query.obs["snmpfp_serve_result_cache_hits_total"], query.obs["snmpfp_serve_result_cache_misses_total"]
	m["serve.result_cache_hit_ratio"] = div(hits, hits+misses)
	m["serve.allocs_per_query"] = div(query.mallocs, query.deepCounts["requests"])
	m["serve.bytes_out_per_query"] = div(query.counts["bytes_out"], query.counts["requests"])

	byClass := latencies(r.reqs)
	for c, name := range queryClasses {
		m["serve."+name+".p50_us"] = percentile(byClass[c], 0.50) / 1e3
		m["serve."+name+".p99_us"] = percentile(byClass[c], 0.99) / 1e3
	}
	m["serve.mix.p999_us"] = percentile(byClass[len(queryClasses)], 0.999) / 1e3

	m["netsim.generate_s"] = median(r.generateS)
	if len(r.plainWalls) > 0 {
		m["obs.trace_overhead_pct"] = (median(r.deepWalls)/median(r.plainWalls) - 1) * 100
	}

	// The ledger: self time per layer over what wall_s measures.
	self := tr.selfTimes(func(s *span) bool { return s.Cycle >= 1 && !s.Tail })
	var wall, attributed time.Duration
	for _, d := range self {
		wall += d
	}
	res.Ledger, res.Wall = map[string]time.Duration{}, wall
	for _, l := range ledgerLayers {
		m["ledger."+l+"_pct"] = div(float64(self[l]), float64(wall)) * 100
		res.Ledger[l] = self[l]
		if l != "harness" {
			attributed += self[l]
		}
	}
	m["ledger.closure_pct"] = div(float64(attributed), float64(wall)) * 100

	tr.cycle, tr.deep = microCycle, false
	r.microScanner(m)
	r.microStore(m, percentile(byClass[classIPCold], 0.50)/1e3)
	if err := r.microLoopback(m); err != nil {
		r.notes = append(r.notes, "serve.loopback_p50_us not measured: "+err.Error())
	}

	for _, d := range perLayer {
		res.Metrics[d.Name] = value{V: m[d.Name], Unit: d.Unit, N: 1}
	}
	res.Notes = r.notes
	return nil
}

// microScanner times the pieces of a probe the engine cannot be asked for
// separately: the permutation walk, the encoder, the parser, the simulator
// with no engine on top, and the engine with a registry attached.
func (r *run) microScanner(m map[string]float64) {
	n := r.opt.sz.microOps
	prefixes := r.wld.ScanPrefixes4()
	seed := r.opt.seed

	space, err := scanner.NewPrefixSpace(prefixes, seed)
	if err != nil {
		return
	}
	addrs := make([]netip.Addr, 0, n)
	d := r.tr.do("scanner.permute", 0, func() {
		for len(addrs) < n {
			a, ok := space.Next()
			if !ok {
				break
			}
			addrs = append(addrs, a)
		}
	})
	m["scanner.permute_ns_per_target"] = div(float64(d), float64(len(addrs)))

	var buf []byte
	d = r.tr.do("snmp.encode", 0, func() {
		for i := 0; i < n; i++ {
			buf = snmp.AppendDiscoveryRequest(buf[:0], int64(i)&0x7FFFFFFF, seed&0x7FFFFFFF)
		}
	})
	m["snmp.encode_ns_per_probe"] = div(float64(d), float64(n))

	if res := r.lastResult; res != nil && len(res.Responses) > 0 {
		var dr snmp.DiscoveryResponse
		parsed := 0
		d = r.tr.do("snmp.parse", 0, func() {
			for parsed < n/4 {
				for i := range res.Responses {
					_ = snmp.ParseDiscoveryResponseInto(&dr, res.Responses[i].Payload) // malformed ones cost a parse too
				}
				parsed += len(res.Responses)
			}
		})
		m["snmp.parse_ns_per_response"] = div(float64(d), float64(parsed))
	}

	d = r.tr.do("netsim.floor", 0, func() { r.transportFloor(addrs, buf) })
	m["netsim.floor_ns_per_probe"] = div(float64(d), float64(len(addrs)))

	// The same miniature campaign with and without a registry: the
	// difference is what scanner.Config.Obs costs per probe.
	w := netsim.Generate(netsim.TinyConfig(seed))
	var per [2]float64
	for i, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
		w.BeginScan()
		sp, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), seed)
		if err != nil {
			return
		}
		cfg := scanner.Config{Rate: 50000, Batch: 256, Clock: w.Clock, Seed: seed, Workers: scanWorkers, Obs: reg}
		var res *scanner.Result
		d := r.tr.do("scanner.scan_obs", i, func() { res, err = scanner.ScanContext(r.ctx, w.NewTransport(), sp, cfg) })
		if err != nil {
			return
		}
		per[i] = div(float64(d), float64(res.Sent))
	}
	m["scanner.obs_ns_per_probe"] = per[1] - per[0]
}

// transportFloor pushes the probe at every address through the simulator's
// batch calls with a draining receiver and no engine: what the simulator
// alone costs per probe.
func (r *run) transportFloor(addrs []netip.Addr, payload []byte) {
	w := r.wld
	base := w.Cfg.StartTime.Add(15 * 24 * time.Hour)
	w.Clock.Set(base)
	w.BeginScan()
	tr := w.NewTransport()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		into := make([]scanner.Datagram, 256)
		for {
			n, err := tr.RecvBatch(into)
			for i := 0; i < n; i++ {
				tr.ReleasePayload(into[i].Payload)
			}
			if err != nil {
				return // io.EOF once closed and drained
			}
		}
	}()
	ats := make([]time.Time, 256)
	for i := 0; i < len(addrs); i += len(ats) {
		batch := addrs[i:min(i+len(ats), len(addrs))]
		for j := range batch {
			ats[j] = base.Add(time.Duration(i+j) * 20 * time.Microsecond)
		}
		if _, err := tr.SendBatchAt(batch, payload, ats[:len(batch)]); err != nil {
			break // a fault-injected send error: the floor is over what was sent
		}
	}
	_ = tr.Close() // the simulated transport's Close cannot fail
	wg.Wait()
}

// microStore times View.Latest with no HTTP around it, on hits and on
// misses, and subtracts the view's share from the cold /v1/ip median.
func (r *run) microStore(m map[string]float64, coldP50us float64) {
	b, q := r.last, r.lastQuerier
	if b == nil || q == nil {
		return
	}
	n := min(r.opt.sz.microOps/10, 100000)
	v := b.st.Snapshot()
	tg := q.tg
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.rng.Intn(len(tg.ips))
	}
	d := r.tr.do("store.latest", 0, func() {
		for _, i := range idx {
			v.Latest(tg.ips[i])
		}
	})
	m["store.latest_ns"] = div(float64(d), float64(n))
	d = r.tr.do("store.latest_miss", 0, func() {
		for i := 0; i < n; i++ {
			v.Latest(tg.missAddrs[i%len(tg.missAddrs)])
		}
	})
	m["store.latest_miss_ns"] = div(float64(d), float64(n))

	// The /v1/ip handler asks the view for Latest and History; time the
	// pair per address and take the median.
	pair := make([]int64, 0, n)
	for _, i := range idx {
		t0 := time.Now()
		v.Latest(tg.ips[i])
		v.History(tg.ips[i])
		pair = append(pair, int64(time.Since(t0)))
	}
	slices.Sort(pair)
	m["serve.handler_self_us"] = coldP50us - percentile(pair, 0.50)/1e3
}

// microLoopback sends requests over one real keep-alive TCP connection on
// the loopback interface: the only number here that crosses a socket.
func (r *run) microLoopback(m map[string]float64) error {
	b, q := r.last, r.lastQuerier
	if b == nil || q == nil {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: b.srv}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed at Shutdown
		close(served)
	}()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	base := "http://" + ln.Addr().String()
	lat := make([]int64, 0, r.opt.sz.loopbackOps)
	var firstErr error
	r.tr.do("serve.loopback", 0, func() {
		for i := 0; i < r.opt.sz.loopbackOps; i++ {
			path := q.tg.ipPaths[r.rng.Intn(len(q.tg.ipPaths))]
			t0 := time.Now()
			resp, err := client.Get(base + path)
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err != nil {
				firstErr = err
				return
			}
			lat = append(lat, int64(time.Since(t0)))
		}
	})
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(r.ctx, 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx) // on timeout the listener is closed anyway
	<-served
	if firstErr != nil {
		return firstErr
	}
	slices.Sort(lat)
	m["serve.loopback_p50_us"] = percentile(lat, 0.50) / 1e3
	return nil
}
