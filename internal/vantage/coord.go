package vantage

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/store"
	"snmpv3fp/internal/wire"
)

// CoordConfig tunes a campaign coordinator.
type CoordConfig struct {
	// Spec is the campaign every vantage will reconstruct locally. Its
	// TotalShards is the number of shard leases (default 1).
	Spec CampaignSpec
	// Viewpoints is how many vantage viewpoints scan every shard (default
	// 1). Viewpoint 0 is the reference: only its partials enter the merged
	// campaign, which keeps the merge byte-identical to a single-process
	// scan. Additional viewpoints feed the agreement report.
	Viewpoints int
	// HeartbeatTTL is how long a leased vantage may stay silent before the
	// coordinator declares it dead and re-leases its shard (default 5s).
	// Nodes heartbeat every NodeConfig.HeartbeatEvery, so the TTL should be
	// several multiples of that.
	HeartbeatTTL time.Duration
	// Obs, when non-nil, receives the coordinator's metrics: lease,
	// re-lease, heartbeat and stale-partial counters, a per-vantage leased-
	// shard gauge, and a merge-lag histogram (seconds from a shard's
	// completion to its fold into the merged campaign).
	Obs *obs.Registry
	// Store, when non-nil, receives the merged campaign via Ingest once
	// every shard has committed. The per-IP fold needs every shard (an
	// off-path datagram captured by one shard can share a source with a
	// legitimate response in another), so ingest begins at the merge
	// barrier, then streams batch-by-batch through the store's WAL.
	Store *store.Store
	// Logf, when non-nil, receives coordinator progress lines.
	Logf func(format string, args ...any)
}

func (c *CoordConfig) fill() {
	if c.Spec.TotalShards <= 0 {
		c.Spec.TotalShards = 1
	}
	if c.Viewpoints <= 0 {
		c.Viewpoints = 1
	}
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// ViewpointReport summarizes how one viewpoint's observations agree with
// the reference viewpoint.
type ViewpointReport struct {
	Viewpoint int
	// Responders is how many distinct sources this viewpoint's campaign
	// observed after collection-time validation.
	Responders int
	// SharedWithRef is how many of those the reference viewpoint also
	// observed.
	SharedWithRef int
}

// Outcome is a completed distributed campaign.
type Outcome struct {
	// Merged is the reference-viewpoint scan result, folded from every
	// shard's partials: byte-identical to what a single-process scan of
	// the same spec would return.
	Merged *scanner.Result
	// Campaign is Merged collected into per-IP observations.
	Campaign *core.Campaign
	// Agreement reports cross-viewpoint overlap, reference viewpoint first.
	Agreement []ViewpointReport
	// CampaignSeq is the store's campaign sequence number when a store was
	// attached (0 otherwise).
	CampaignSeq uint64
}

const (
	unitPending = iota
	unitLeased
	unitDone
)

// unit is one leasable work item: one shard seen from one viewpoint.
type unit struct {
	shard     int
	viewpoint int
	state     int
	epoch     uint64 // current lease epoch while leased
	vantage   string
	// responses accumulates the current lease's Partial frames; reset on
	// re-lease so a half-streamed dead lease leaves nothing behind.
	responses []scanner.Response
	result    *scanner.Result
	doneAt    time.Time
}

// coordMetrics is the coordinator's obs surface (nil-safe: a nil registry
// yields unregistered metrics that still count, matching the scanner's
// pattern of metrics never perturbing behavior).
type coordMetrics struct {
	reg           *obs.Registry
	leases        *obs.Counter
	releases      *obs.Counter
	heartbeats    *obs.Counter
	stalePartials *obs.Counter
	mergeLag      *obs.Histogram
	mu            sync.Mutex
	vantageUnits  map[string]*obs.Gauge
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Help("snmpfp_coord_leases_total", "Shard leases granted to vantage nodes, re-leases included.")
	reg.Help("snmpfp_coord_releases_total", "Leases revoked from failed vantage nodes and returned to the pool.")
	reg.Help("snmpfp_coord_heartbeats_total", "Heartbeat frames received from leased vantage nodes.")
	reg.Help("snmpfp_coord_stale_partials_total", "Partial frames discarded because their lease epoch was no longer current.")
	reg.Help("snmpfp_coord_merge_lag_seconds", "Delay between a shard committing and its fold into the merged campaign.")
	reg.Help("snmpfp_coord_vantage_units", "Work units currently leased, per vantage node.")
	return &coordMetrics{
		reg:           reg,
		leases:        reg.Counter("snmpfp_coord_leases_total"),
		releases:      reg.Counter("snmpfp_coord_releases_total"),
		heartbeats:    reg.Counter("snmpfp_coord_heartbeats_total"),
		stalePartials: reg.Counter("snmpfp_coord_stale_partials_total"),
		mergeLag:      reg.Histogram("snmpfp_coord_merge_lag_seconds", obs.ExpBuckets(1e-4, 4, 10)),
		vantageUnits:  make(map[string]*obs.Gauge),
	}
}

// vantageGauge returns the leased-units gauge for one vantage, registering
// it on first sight.
func (m *coordMetrics) vantageGauge(name string) *obs.Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.vantageUnits[name]
	if !ok {
		g = m.reg.Gauge("snmpfp_coord_vantage_units", obs.L("vantage", name))
		m.vantageUnits[name] = g
	}
	return g
}

// Coordinator runs one distributed campaign: it leases (shard, viewpoint)
// units to connected vantage nodes, buffers their streamed partials keyed
// by lease epoch, detects dead nodes by connection failure or heartbeat
// silence and re-leases their units, and — once every unit has committed —
// folds the reference viewpoint's partials into the campaign result.
type Coordinator struct {
	cfg     CoordConfig
	metrics *coordMetrics

	mu        sync.Mutex
	cond      *sync.Cond
	units     []*unit
	remaining int
	nextEpoch uint64
	finished  bool

	done       chan struct{}
	outcome    *Outcome
	outcomeErr error
}

// NewCoordinator builds a coordinator for one campaign.
func NewCoordinator(cfg CoordConfig) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:     cfg,
		metrics: newCoordMetrics(cfg.Obs),
		done:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	// Reference viewpoint first, shards in order: the merge needs viewpoint
	// 0 complete, so it should never starve behind agreement-only work.
	for v := 0; v < cfg.Viewpoints; v++ {
		for s := 0; s < cfg.Spec.TotalShards; s++ {
			c.units = append(c.units, &unit{shard: s, viewpoint: v})
		}
	}
	c.remaining = len(c.units)
	return c
}

// Serve accepts vantage connections on l until the listener is closed,
// handling each in its own goroutine. It returns the accept error (callers
// typically close l once Wait returns).
func (c *Coordinator) Serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.handle(conn)
		}()
	}
}

// Done is closed once the campaign has merged.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Wait blocks until the campaign completes or ctx expires, then returns
// the outcome.
func (c *Coordinator) Wait(ctx context.Context) (*Outcome, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outcome, c.outcomeErr
}

// handle speaks the coordinator side of the protocol with one vantage.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTTL))
	typ, body, err := wire.ReadFrame(conn)
	if err != nil || typ != frameHello {
		return
	}
	hello, err := ParseHello(body)
	if err != nil {
		return
	}
	if hello.Version != protocolVersion {
		c.cfg.Logf("vantage %q speaks protocol %d, want %d; rejecting", hello.Name, hello.Version, protocolVersion)
		return
	}
	if err := wire.WriteFrame(conn, frameCampaign, AppendCampaignSpec(nil, c.cfg.Spec)); err != nil {
		return
	}
	c.cfg.Logf("vantage %q connected", hello.Name)
	gauge := c.metrics.vantageGauge(hello.Name)

	for {
		u, lease, ok := c.acquireUnit(hello.Name)
		if !ok {
			wire.WriteFrame(conn, frameCampaignDone, nil)
			return
		}
		gauge.Add(1)
		err := c.runLease(conn, u, lease)
		gauge.Add(-1)
		if err != nil {
			c.releaseUnit(u, lease.Epoch)
			c.cfg.Logf("vantage %q lost lease %d (shard %d, viewpoint %d): %v",
				hello.Name, lease.Epoch, lease.Shard, lease.Viewpoint, err)
			return
		}
	}
}

// acquireUnit leases the next pending unit to vantage name, blocking until
// one is available or the campaign finishes.
func (c *Coordinator) acquireUnit(name string) (*unit, Lease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.remaining == 0 || c.finished {
			return nil, Lease{}, false
		}
		for _, u := range c.units {
			if u.state != unitPending {
				continue
			}
			c.nextEpoch++
			u.state = unitLeased
			u.epoch = c.nextEpoch
			u.vantage = name
			u.responses = nil
			c.metrics.leases.Add(1)
			return u, Lease{Epoch: u.epoch, Shard: u.shard, Viewpoint: u.viewpoint}, true
		}
		c.cond.Wait()
	}
}

// releaseUnit returns a leased unit to the pending pool after its vantage
// failed, retiring the lease epoch so late frames from the dead lease are
// recognizably stale.
func (c *Coordinator) releaseUnit(u *unit, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if u.state == unitLeased && u.epoch == epoch {
		u.state = unitPending
		u.vantage = ""
		u.responses = nil
		c.metrics.releases.Add(1)
		c.cond.Broadcast()
	}
}

// runLease drives one lease to completion: it sends the Lease frame, then
// consumes Heartbeat, Partial and ShardDone frames. Every read carries the
// heartbeat TTL as its deadline, so a vantage that dies without closing its
// socket (SIGKILL leaves the TCP peer silent, not reset) is detected as a
// deadline error and its unit re-leased. Returns nil once the unit
// committed; any error means the unit must be released.
func (c *Coordinator) runLease(conn net.Conn, u *unit, lease Lease) error {
	if err := wire.WriteFrame(conn, frameLease, AppendLease(nil, lease)); err != nil {
		return err
	}
	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTTL))
		typ, body, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		switch typ {
		case frameHeartbeat:
			hb, err := ParseHeartbeat(body)
			if err != nil {
				return err
			}
			if hb.Epoch == lease.Epoch {
				c.metrics.heartbeats.Add(1)
			}
		case framePartial:
			p, err := ParsePartial(body)
			if err != nil {
				return err
			}
			if !c.bufferPartial(u, p) {
				c.metrics.stalePartials.Add(1)
			}
		case frameShardDone:
			d, err := ParseShardDone(body)
			if err != nil {
				return err
			}
			if d.Epoch != lease.Epoch {
				c.metrics.stalePartials.Add(1)
				continue
			}
			return c.commitUnit(u, d)
		default:
			return fmt.Errorf("vantage: unexpected frame type %d during lease", typ)
		}
	}
}

// bufferPartial appends a Partial chunk to its unit's buffer, rejecting
// chunks whose epoch is not the unit's current lease.
func (c *Coordinator) bufferPartial(u *unit, p Partial) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if u.state != unitLeased || u.epoch != p.Epoch {
		return false
	}
	u.responses = append(u.responses, p.Responses...)
	return true
}

// commitUnit seals a unit with its ShardDone counters and, when it was the
// last one, finalizes the campaign.
func (c *Coordinator) commitUnit(u *unit, d ShardDone) error {
	c.mu.Lock()
	if u.state != unitLeased || u.epoch != d.Epoch {
		c.mu.Unlock()
		c.metrics.stalePartials.Add(1)
		return errors.New("vantage: shard-done for a retired lease")
	}
	u.state = unitDone
	u.result = &scanner.Result{
		Sent: d.Sent, Retried: d.Retried, OffPath: d.OffPath,
		ProbeMsgID: d.ProbeMsgID, Started: d.Started, Finished: d.Finished,
		Responses: u.responses,
	}
	u.responses = nil
	u.doneAt = time.Now()
	c.remaining--
	last := c.remaining == 0
	c.cfg.Logf("shard %d viewpoint %d committed by %q (%d responses), %d units left",
		u.shard, u.viewpoint, u.vantage, len(u.result.Responses), c.remaining)
	c.mu.Unlock()
	if last {
		c.finalize()
	}
	return nil
}

// finalize folds the committed units into the campaign outcome: merge the
// reference viewpoint's shards, collect per-IP observations, compute the
// cross-viewpoint agreement report, and stream the campaign into the store
// when one is attached. Runs exactly once, on whichever handler committed
// the last unit.
func (c *Coordinator) finalize() {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.finished = true
	byViewpoint := make(map[int][]*scanner.Result)
	lags := make([]time.Duration, 0, len(c.units))
	now := time.Now()
	for _, u := range c.units {
		byViewpoint[u.viewpoint] = append(byViewpoint[u.viewpoint], u.result)
		lags = append(lags, now.Sub(u.doneAt))
	}
	c.mu.Unlock()

	for _, lag := range lags {
		c.metrics.mergeLag.Observe(lag.Seconds())
	}
	merged := scanner.MergeResults(byViewpoint[0]...)
	campaign := core.Collect(merged)
	out := &Outcome{Merged: merged, Campaign: campaign}
	var err error
	for v := 0; v < c.cfg.Viewpoints; v++ {
		vc := campaign
		if v != 0 {
			vc = core.Collect(scanner.MergeResults(byViewpoint[v]...))
		}
		shared := 0
		for ip := range vc.ByIP {
			if _, ok := campaign.ByIP[ip]; ok {
				shared++
			}
		}
		out.Agreement = append(out.Agreement, ViewpointReport{
			Viewpoint: v, Responders: len(vc.ByIP), SharedWithRef: shared,
		})
	}
	if c.cfg.Store != nil {
		out.CampaignSeq, err = c.cfg.Store.Ingest(context.Background(), campaign)
		if err != nil {
			err = fmt.Errorf("vantage: store ingest: %w", err)
		}
	}
	c.cfg.Logf("campaign merged: %d responders, %d responses, store seq %d",
		len(campaign.ByIP), len(merged.Responses), out.CampaignSeq)

	c.mu.Lock()
	c.outcome, c.outcomeErr = out, err
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.done)
}
