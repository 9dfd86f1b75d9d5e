package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/serve"
	"snmpv3fp/internal/store"
)

// options are one run's inputs.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // parent of the store directories and of trace.jsonl
	sz      *sizes
}

// result is what one run reports: every end-to-end metric when untraced,
// every per-layer metric when traced.
type result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Metrics   map[string]value
	Attempted int
	Failed    int
	Digest    string
	Notes     []string
	// Samples are the untraced run's per-unit readings behind each median.
	Samples map[string][]float64
	// Ledger is each layer's self time per cycle, for the traced run's
	// printed table.
	Ledger map[string]time.Duration
	Wall   time.Duration
}

// run is the state of one workload run.
type run struct {
	w    *workload
	opt  options
	ctx  context.Context
	tr   *tracer
	wld  *netsim.World
	rng  *rand.Rand
	e2e  map[string][]float64 // end-to-end samples by metric name
	reqs []requestSpan        // every timed request, for the trace file

	attempted, failed int
	notes             []string
	digest            string

	// Traced-run extras.
	generateS  []float64
	deepWalls  []float64 // timed-unit walls with deep tracing on / off
	plainWalls []float64
	rebuildUs  []float64
	writeAmp   []float64
	versions   int
	lastResult *scanner.Result
	// last is the most recent store build, kept open until the next one
	// (or the end of the run) so the traced run can measure against it.
	last        *built
	lastQuerier *querier
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and records it when it fails.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) sample(metric string, v float64) { r.e2e[metric] = append(r.e2e[metric], v) }

// runWorkload executes one workload once, in this process.
func runWorkload(w *workload, opt options) (*result, error) {
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	r := &run{
		w: w, opt: opt, ctx: context.Background(),
		tr:  newTracer(w.Name),
		rng: rand.New(rand.NewSource(opt.seed)),
		e2e: map[string][]float64{},
	}
	r.tr.reg = obs.NewRegistry()

	defer func() { r.keep(nil) }()
	var err error
	switch w.kind {
	case pipeline:
		err = r.runPipeline()
	default:
		err = r.runQuery()
	}
	if err != nil {
		return nil, err
	}
	r.sample("peak_rss_mb", peakRSSMiB())

	res := &result{Workload: w.Name, Seed: opt.seed, Trace: opt.trace, Metrics: map[string]value{},
		Attempted: r.attempted, Failed: r.failed, Digest: r.digest, Notes: r.notes}
	if !opt.trace {
		res.Samples = r.e2e
		for _, d := range endToEnd {
			xs := r.e2e[d.Name]
			res.Metrics[d.Name] = value{V: median(xs), Unit: d.Unit, N: len(xs)}
		}
		return res, nil
	}
	if err := r.perLayer(res); err != nil {
		return nil, err
	}
	if err := r.tr.writeTrace(filepath.Join(opt.dir, w.Name+".trace.jsonl"), r.reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// keep makes b the run's current store build and throws the previous one
// away.
func (r *run) keep(b *built) {
	if r.last != nil {
		r.last.discard()
	}
	r.last, r.lastQuerier = b, nil
}

// generate builds the workload's world; it is the part of set-up every
// workload shares.
func (r *run) generate() {
	cfg := r.w.world(r.opt.sz, r.opt.seed)
	d := r.tr.do("netsim.generate", 0, func() { r.wld = netsim.Generate(cfg) })
	r.generateS = append(r.generateS, d.Seconds())
}

// beginUnit numbers the timed unit (a pipeline cycle, a query unit) about to
// start. A traced run alternates deep and plain units; the difference between
// their wall times is the tracing overhead.
func (r *run) beginUnit(n int) {
	r.tr.cycle = n
	r.tr.deep = r.opt.trace && n%2 == 1
}

// endUnit records unit n's wall time and reports whether another unit
// should start: the units have `seconds` from start, there are at least
// minUnits of them, and they stop once less than half a unit remains.
func (r *run) endUnit(start time.Time, n int, wall time.Duration, seconds float64) bool {
	r.sample("wall_s", wall.Seconds())
	if r.tr.deep {
		r.deepWalls = append(r.deepWalls, wall.Seconds())
	} else {
		r.plainWalls = append(r.plainWalls, wall.Seconds())
	}
	if n < r.opt.sz.minUnits {
		return true
	}
	return time.Since(start).Seconds()+wall.Seconds()/2 < seconds
}

// A pipeline run spends cycleShare of its seconds on cycles, recovers the
// last store again until recoverShare of them has passed, and ends with the
// query tail.
const (
	cycleShare   = 0.8
	recoverShare = 0.88
)

// runPipeline is the three pipeline workloads. Set-up is world generation
// (repeated for a median); the timed region repeats whole cycles, each on
// a fresh store directory, and ends with a tail against the last cycle's
// store that gives the recovery and query metrics more samples than one a
// cycle: so that a pipeline workload reports them steadily, without diluting
// what a cycle spends its time on.
func (r *run) runPipeline() error {
	sz := r.opt.sz
	for i := 0; i < sz.setups; i++ {
		r.generate()
		r.sample("setup_s", r.generateS[len(r.generateS)-1])
	}
	start := time.Now()
	unit := 1
	for ; ; unit++ {
		r.beginUnit(unit)
		wall, err := r.pipelineCycle(unit)
		if err != nil {
			return err
		}
		if !r.endUnit(start, unit, wall, r.opt.seconds*cycleShare) {
			break
		}
	}

	r.tr.tail = true
	b := r.last
	sopt := r.w.serveOptions(sz)
	sopt.Dir = b.dir
	b.recovery = nil
	for n := 0; n < sz.tailRecoveries || time.Since(start).Seconds() < r.opt.seconds*recoverShare; n++ {
		runtime.GC() // untimed: each recovery starts from a collected heap
		unit++
		r.beginUnit(unit)
		if err := r.recoverStore(b, sopt); err != nil {
			return err
		}
	}
	r.sampleRecoveries(b)

	// As on the query workloads, one untimed unit fills the caches first.
	q := r.querier(b)
	r.warm(q)
	for i := 0; i < sz.tailUnits; i++ {
		unit++
		r.beginUnit(unit)
		qr, _ := r.queryPhase(q, r.opt.seed+int64(unit), sz.unitQueries)
		r.recordQueries(&qr)
	}
	return nil
}

// pipelineCycle builds a store from the workload's campaigns and recovers
// it; that is the cycle's wall time.
func (r *run) pipelineCycle(cycle int) (time.Duration, error) {
	r.keep(nil) // outside the timed section
	runtime.GC()
	id := r.tr.begin("workload.build", 0)
	b, err := r.build(cycle)
	wall := r.tr.end(id)
	r.keep(b)
	if err != nil {
		return 0, err
	}
	r.recordBuild(b)
	return wall, nil
}

// warm runs one untimed unit of the mix, which lets the caches reach their
// steady state: for the dense world, full and evicting.
func (r *run) warm(q *querier) {
	qr := q.run(r.opt.seed, queryClients, r.opt.sz.unitQueries, nil)
	r.attempted += qr.attempted
	r.failed += qr.failed
	r.notes = append(r.notes, qr.notes...)
}

// queryPhase runs n requests of the mix from the closed-loop clients inside
// one span, which carries what the phase counted.
func (r *run) queryPhase(q *querier, seed int64, n int) (queryResult, time.Duration) {
	id := r.tr.begin("serve.query", 0)
	qr := q.run(seed, queryClients, n, nil)
	r.tr.setCounts(id, map[string]float64{"requests": float64(len(qr.requests)), "bytes_out": float64(qr.bytesOut)})
	return qr, r.tr.end(id)
}

// runQuery is the two query workloads: build once (set-up), then repeat
// timed units against the recovered store.
func (r *run) runQuery() error {
	setupStart := time.Now()
	r.generate()
	id := r.tr.begin("workload.build", 0)
	b, err := r.build(0)
	r.tr.end(id)
	r.keep(b)
	if err != nil {
		return err
	}
	r.recordBuild(b)
	q := r.querier(b)

	var slice *core.Campaign
	if r.w.kind == queryLive {
		slice = r.liveSlice(b)
	}
	r.warm(q)
	r.sample("setup_s", time.Since(setupStart).Seconds())

	start := time.Now()
	for unit := 1; ; unit++ {
		r.beginUnit(unit)
		var qr queryResult
		var wall time.Duration
		if r.w.kind == queryStatic {
			qr, wall = r.queryPhase(q, r.opt.seed+int64(unit), r.opt.sz.unitQueries)
		} else {
			var err error
			qr, wall, err = r.liveUnit(b, q, slice, unit)
			if err != nil {
				return err
			}
		}
		r.recordQueries(&qr)
		if !r.endUnit(start, unit, wall, r.opt.seconds) {
			return nil
		}
	}
}

// liveSlice cuts the first liveSlice addresses (in address order) out of the
// last campaign: the fixed input every query-live unit ingests as the next
// campaign.
func (r *run) liveSlice(b *built) *core.Campaign {
	src := b.campaigns[len(b.campaigns)-1]
	ips := src.SortedIPs()
	ips = ips[:min(r.opt.sz.liveSlice, len(ips))]
	c := &core.Campaign{ByIP: make(map[netip.Addr]*core.Observation, len(ips)), Started: src.Started, Finished: src.Finished}
	for _, ip := range ips {
		c.ByIP[ip] = src.ByIP[ip]
	}
	return c
}

// liveUnit ingests the slice on this goroutine while one reader queries
// until the ingest returns. The unit's wall time is the ingest's.
func (r *run) liveUnit(b *built, q *querier, slice *core.Campaign, unit int) (queryResult, time.Duration, error) {
	stop := make(chan struct{})
	done := make(chan queryResult, 1) // the reader's one result
	id := r.tr.begin("workload.live_unit", 0)
	go func() { done <- q.run(r.opt.seed+int64(unit), 1, 0, stop) }()
	ingest := r.tr.begin("store.ingest", unit)
	n, err := b.st.Ingest(r.ctx, slice)
	r.tr.setCounts(ingest, map[string]float64{"samples": float64(len(slice.ByIP))})
	d := r.tr.end(ingest)
	close(stop)
	qr := <-done
	r.tr.setCounts(id, map[string]float64{"requests": float64(len(qr.requests)), "bytes_out": float64(qr.bytesOut)})
	wall := r.tr.end(id)
	r.attempted++
	if err != nil {
		return qr, wall, fmt.Errorf("live ingest: %w", err)
	}
	b.acked += len(slice.ByIP)
	r.sample("samples_per_s", float64(len(slice.ByIP))/d.Seconds())
	ingested := b.st.Snapshot().Stats().Ingested
	r.check(ingested == uint64(b.acked), "campaign %d: Stats().Ingested %d, acknowledged %d", n, ingested, b.acked)
	qr.wall = d
	return qr, wall, nil
}

// recordQueries folds one query phase into the run's end-to-end samples.
func (r *run) recordQueries(qr *queryResult) {
	r.attempted += qr.attempted
	r.failed += qr.failed
	r.notes = append(r.notes, qr.notes...)
	r.versions += qr.versions
	if r.opt.trace {
		r.reqs = append(r.reqs, qr.requests...)
	}
	all := make([]int64, len(qr.requests))
	for i, q := range qr.requests {
		all[i] = int64(q.dur)
	}
	slices.Sort(all)
	r.sample("query_qps", float64(len(all))/qr.wall.Seconds())
	r.sample("query_p50_us", percentile(all, 0.50)/1e3)
	r.sample("query_p99_us", percentile(all, 0.99)/1e3)
}

// built is one store build: campaigns scanned, collected, ingested, flushed,
// compacted, then closed and reopened.
type built struct {
	dir       string
	reg       *obs.Registry
	st        *store.Store
	srv       *serve.Server
	campaigns []*core.Campaign
	prefixes  []netip.Prefix

	probes    uint64
	acked     int
	pipeline  time.Duration // first probe → final Flush returned
	publish   []time.Duration
	recovery  []time.Duration
	diskBytes int64
	wchar     int64 // bytes written while building, from /proc/self/io
}

func (b *built) discard() {
	if b.st != nil {
		_ = b.st.Close() // the data is thrown away next
	}
	_ = os.RemoveAll(b.dir)
}

func (r *run) recordBuild(b *built) {
	r.sample("probes_per_s", float64(b.probes)/b.pipeline.Seconds())
	if r.w.kind != queryLive { // query-live reports its writer's rate
		r.sample("samples_per_s", float64(b.acked)/b.pipeline.Seconds())
	}
	// One publish_s sample per build, the mean over its campaigns: later
	// campaigns land in a fuller store, so single campaigns do not compare.
	var publish time.Duration
	for _, p := range b.publish {
		publish += p
	}
	r.sample("publish_s", publish.Seconds()/float64(len(b.publish)))
	r.sampleRecoveries(b)
	r.sample("disk_bytes_per_sample", float64(b.diskBytes)/float64(b.acked))
	r.writeAmp = append(r.writeAmp, float64(b.wchar)/float64(b.diskBytes))
}

func (r *run) sampleRecoveries(b *built) {
	for _, d := range b.recovery {
		r.sample("recover_s", d.Seconds())
	}
}

func (r *run) querier(b *built) *querier {
	engines := map[string]struct{}{}
	tracked := map[netip.Addr]struct{}{}
	for _, c := range b.campaigns {
		for ip, o := range c.ByIP {
			tracked[ip] = struct{}{}
			if len(o.EngineID) > 0 {
				engines[hex.EncodeToString(o.EngineID)] = struct{}{}
			}
		}
	}
	ips := make([]netip.Addr, 0, len(tracked))
	for ip := range tracked {
		ips = append(ips, ip)
	}
	slices.SortFunc(ips, netip.Addr.Compare)
	ids := make([]string, 0, len(engines))
	for e := range engines {
		ids = append(ids, e)
	}
	slices.Sort(ids)
	r.lastQuerier = &querier{srv: b.srv, src: b.st, tg: newTargets(r.opt.seed, ips, ids, b.prefixes), mix: r.w.mix, epoch: r.tr.epoch}
	return r.lastQuerier
}

// build runs the workload's campaigns into a fresh durable store and
// recovers it. Every call into a layer is a span.
func (r *run) build(cycle int) (*built, error) {
	sz, tr := r.opt.sz, r.tr
	dir, err := os.MkdirTemp(r.opt.dir, r.w.Name+"-*")
	if err != nil {
		return nil, err
	}
	wcharBefore := procWchar()
	b := &built{dir: dir, reg: obs.NewRegistry(), prefixes: r.wld.ScanPrefixes4()}
	tr.reg = b.reg
	sopt := r.w.buildOptions(sz)
	sopt.Dir, sopt.Obs = dir, b.reg
	tr.do("store.open", 0, func() { b.st, err = store.Open(sopt) })
	if err != nil {
		return b, fmt.Errorf("open: %w", err)
	}
	tr.do("serve.new", 0, func() { b.srv = serve.New(b.st, serve.WithObs(b.reg)) })

	first := time.Now()
	for c := 1; c <= r.w.campaigns(sz); c++ {
		camp, scanEnd, err := r.scanCampaign(b, c)
		if err != nil {
			return b, err
		}
		ingest := tr.begin("store.ingest", c)
		n, err := b.st.Ingest(r.ctx, camp)
		tr.setCounts(ingest, map[string]float64{"samples": float64(len(camp.ByIP))})
		tr.end(ingest)
		r.attempted++
		if err != nil {
			return b, fmt.Errorf("ingest campaign %d: %w", c, err)
		}
		b.acked += len(camp.ByIP)
		b.campaigns = append(b.campaigns, camp)
		// The first Snapshot after a mutation rebuilds the view; time it
		// on its own, then ask the server about one of the campaign's IPs.
		d := tr.do("store.snapshot", c, func() { b.st.Snapshot() })
		r.rebuildUs = append(r.rebuildUs, float64(d)/1e3)
		tr.do("serve.publish_query", c, func() { r.checkPublished(b, camp, n) })
		b.publish = append(b.publish, time.Since(scanEnd))

		if r.w.kind != pipeline && c == 1 {
			// The fixed layout: campaign 1 ends as one segment.
			tr.do("store.flush", c, func() { err = b.st.Flush() })
			if err == nil {
				tr.do("store.compact", c, func() { err = b.st.Compact() })
			}
			if err != nil {
				return b, fmt.Errorf("layout: %w", err)
			}
		}
	}
	tr.do("store.flush", 0, func() { err = b.st.Flush() })
	b.pipeline = time.Since(first)
	if err == nil && r.w.kind == pipeline {
		tr.do("store.compact", 0, func() { err = b.st.Compact() })
	}
	if err != nil {
		return b, fmt.Errorf("flush/compact: %w", err)
	}

	var before []store.Sample
	var sampled []netip.Addr
	tr.do("harness.verify", 0, func() {
		b.diskBytes = dirSize(dir)
		b.wchar = procWchar() - wcharBefore
		stats := b.st.Snapshot().Stats()
		r.check(stats.Ingested == uint64(b.acked), "Stats().Ingested %d, acknowledged %d", stats.Ingested, b.acked)
		if cycle <= 1 {
			r.digest = campaignDigest(b.campaigns)
		}
		sampled, before = r.readbackSample(b)
	})

	// A pipeline cycle recovers once; a query workload's set-up, which
	// builds only once, recovers a few times for a steadier recover_s.
	reopens := 1
	if r.w.kind != pipeline {
		reopens = sz.setups
	}
	sopt = r.w.serveOptions(sz)
	sopt.Dir = dir
	for i := 0; i < reopens; i++ {
		if i > 0 {
			runtime.GC() // untimed: each recovery starts from a collected heap
		}
		if err := r.recoverStore(b, sopt); err != nil {
			return b, err
		}
	}

	tr.do("harness.verify", 0, func() {
		v := b.st.Snapshot()
		for i, ip := range sampled {
			got, ok := v.Latest(ip)
			r.check(ok && sameSample(got, before[i]), "%v: Latest after reopen differs from before close", ip)
		}
	})
	return b, nil
}

// recoverStore closes the store and opens the directory again, up to the
// first answered query.
func (r *run) recoverStore(b *built, sopt store.Options) error {
	tr := r.tr
	start := time.Now()
	var err error
	tr.do("store.close", 0, func() { err = b.st.Close() })
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	b.reg = obs.NewRegistry()
	tr.reg = b.reg
	sopt.Obs = b.reg
	reopen := tr.begin("store.reopen", 0)
	b.st, err = store.Open(sopt)
	tr.end(reopen)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	tr.setCounts(reopen, map[string]float64{"segments": float64(b.st.Snapshot().Stats().Segments)})
	tr.do("serve.new", 0, func() { b.srv = serve.New(b.st, serve.WithObs(b.reg)) })
	last := b.campaigns[len(b.campaigns)-1]
	tr.do("serve.first_query", 0, func() { r.checkPublished(b, last, uint64(len(b.campaigns))) })
	b.recovery = append(b.recovery, time.Since(start))
	return nil
}

// scanCampaign runs campaign c of the current build against the world and
// folds the responses. It returns the campaign and the instant the scan
// ended, from which publish_s is counted.
func (r *run) scanCampaign(b *built, c int) (*core.Campaign, time.Time, error) {
	w, tr := r.wld, r.tr
	// The paper's cadence: campaigns six days apart from day 15.
	w.Clock.Set(w.Cfg.StartTime.Add(time.Duration(15+6*(c-1)) * 24 * time.Hour))
	w.BeginScan()
	seed := r.opt.seed + int64(c)
	var space scanner.TargetSpace
	var err error
	tr.do("scanner.new_prefix_space", c, func() { space, err = scanner.NewPrefixSpace(b.prefixes, seed) })
	if err != nil {
		return nil, time.Time{}, err
	}
	var transport *netsim.Transport
	tr.do("netsim.new_transport", c, func() { transport = w.NewTransport() })
	// The engine runs as cmd/snmpscan and the vantage workers run it: no
	// registry. With one attached it keeps a per-probe send log that costs
	// several times the probe itself; scanner.obs_ns_per_probe reports that.
	cfg := scanner.Config{Rate: 50000, Batch: 256, Clock: w.Clock, Seed: seed, Workers: scanWorkers, Retries: r.w.retries}
	id := tr.begin("scanner.scan", c)
	res, err := scanner.ScanContext(r.ctx, transport, space, cfg)
	r.attempted++
	if err != nil {
		tr.end(id)
		return nil, time.Time{}, fmt.Errorf("scan campaign %d: %w", c, err)
	}
	tr.setCounts(id, map[string]float64{
		"probes": float64(res.Sent), "responses": float64(len(res.Responses)),
		"retried": float64(res.Retried), "offpath": float64(res.OffPath),
	})
	tr.end(id)
	scanEnd := time.Now()
	b.probes += res.Sent
	r.lastResult = res

	id = tr.begin("core.collect", c)
	camp := core.Collect(res)
	tr.setCounts(id, map[string]float64{
		"datagrams": float64(camp.TotalPackets), "ips": float64(len(camp.ByIP)),
		"rejected": float64(camp.Malformed + camp.Mismatched + camp.FloodCapped),
	})
	tr.end(id)
	return camp, scanEnd, nil
}

// checkPublished asks the server for one IP of the campaign and checks the
// answer's latest sample belongs to campaign n.
func (r *run) checkPublished(b *built, camp *core.Campaign, n uint64) {
	var ip netip.Addr
	for a := range camp.ByIP {
		if !ip.IsValid() || a.Less(ip) {
			ip = a
		}
	}
	w := &sink{h: make(http.Header), capture: true}
	b.srv.ServeHTTP(w, getRequest("/v1/ip/"+ip.String()))
	var got serve.WireIP
	err := json.Unmarshal(w.body.Bytes(), &got)
	r.check(statusOf(w) == http.StatusOK && err == nil && got.Latest.Campaign == n,
		"/v1/ip/%v after campaign %d: status %d, latest campaign %d, decode error %v", ip, n, statusOf(w), got.Latest.Campaign, err)
}

// readbackSample picks readback tracked IPs and reads their latest samples.
func (r *run) readbackSample(b *built) ([]netip.Addr, []store.Sample) {
	ips := b.campaigns[len(b.campaigns)-1].SortedIPs()
	v := b.st.Snapshot()
	n := min(r.opt.sz.readback, len(ips))
	addrs := make([]netip.Addr, 0, n)
	samples := make([]store.Sample, 0, n)
	for _, i := range r.rng.Perm(len(ips))[:n] {
		s, ok := v.Latest(ips[i])
		r.check(ok, "%v: acknowledged but not readable", ips[i])
		addrs = append(addrs, ips[i])
		samples = append(samples, s)
	}
	return addrs, samples
}

func sameSample(a, b store.Sample) bool {
	return a.IP == b.IP && a.Campaign == b.Campaign && a.Seq == b.Seq && string(a.EngineID) == string(b.EngineID) &&
		a.Boots == b.Boots && a.EngineTime == b.EngineTime && a.ReceivedAt.Equal(b.ReceivedAt) && a.Packets == b.Packets
}

// campaignDigest hashes the campaigns canonically: per campaign, every IP in
// address order with its engine ID, boots, engine time and receive instant.
// Equal seeds must give equal digests.
func campaignDigest(campaigns []*core.Campaign) string {
	h := sha256.New()
	var num [8]byte
	put := func(v int64) {
		binary.BigEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	for _, c := range campaigns {
		put(int64(len(c.ByIP)))
		for _, ip := range c.SortedIPs() {
			o := c.ByIP[ip]
			h.Write(ip.AsSlice())
			put(int64(len(o.EngineID)))
			h.Write(o.EngineID)
			put(o.EngineBoots)
			put(o.EngineTime)
			put(o.ReceivedAt.UnixNano())
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file the store deleted mid-walk is simply not counted
	})
	return total
}
