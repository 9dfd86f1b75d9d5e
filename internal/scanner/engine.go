package scanner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/vclock"
)

// engine drives one campaign: sharded concurrent sending, asynchronous
// capture, deterministic virtual-time scheduling, and retry passes.
type engine struct {
	cfg     Config
	tr      Transport
	targets TargetSpace
	probe   []byte

	// batch is tr as the batch API, the engine's one send/receive path:
	// tr itself when it implements all of it, an adapter otherwise.
	batch batchTransport
	// vclk / shardable / positioned / member / releaser cache the optional
	// capability checks that select the pacing mode, response validation,
	// and receive-buffer recycling.
	vclk       *vclock.Virtual
	shardable  ShardableSpace
	member     MembershipSpace
	releaser   PayloadReleaser
	positioned bool
	// logical is true when probe send times are computed from permutation
	// slots instead of pacing sleeps: virtual clock + timed transport +
	// positioned space. In this mode workers run at full host speed and
	// the campaign is deterministic for any worker count.
	logical bool
	workers int

	// capture state. Responses accumulate in fixed-size chunks rather than
	// one growing slice: appending N responses to a single slice churns
	// several times N in copies as it regrows, while chunks allocate exactly
	// once each and are concatenated once into the Result.
	captureWG  sync.WaitGroup
	mu         sync.Mutex
	drained    *sync.Cond
	respChunks [][]Response // filled chunks, in capture order
	respCur    []Response   // chunk currently being filled
	// responders is every source address seen so far; retry passes skip
	// these.
	responders  map[netip.Addr]struct{}
	consumed    uint64
	captureDone bool
	recvErr     error
	// arena packs retained payload copies when the transport recycles its
	// receive buffers; only the capture goroutine touches it.
	arena byteArena

	// campaign statistics (see stats.go for the snapshot view).
	sent       atomic.Uint64
	received   atomic.Uint64
	retried    atomic.Uint64
	offPath    atomic.Uint64
	sendErrs   atomic.Uint64
	pass       atomic.Int64
	shardSent  []atomic.Uint64
	shardDone  []atomic.Bool
	startWall  time.Time
	startClock time.Time
	progressMu sync.Mutex

	// cancellation on first send failure or context cancellation.
	cancel     chan struct{}
	cancelOnce sync.Once
	errMu      sync.Mutex
	firstErr   error

	// observability. metrics is never nil; its handles are nil (no-op)
	// when Config.Obs is unset. sendLog/rttMark drive pass-end RTT
	// accounting and are only allocated when a registry is attached.
	metrics *scanMetrics
	sendLog [][]sendRec
	rttMark int
}

func newEngine(tr Transport, targets TargetSpace, cfg Config, probe []byte) *engine {
	e := &engine{
		cfg:        cfg,
		tr:         tr,
		targets:    targets,
		probe:      probe,
		responders: make(map[netip.Addr]struct{}),
		cancel:     make(chan struct{}),
		startWall:  time.Now(),
		startClock: cfg.Clock.Now(),
	}
	e.drained = sync.NewCond(&e.mu)
	e.batch = batchOf(tr)
	e.releaser, _ = tr.(PayloadReleaser)
	e.vclk, _ = cfg.Clock.(*vclock.Virtual)
	e.shardable, _ = targets.(ShardableSpace)
	e.member, _ = targets.(MembershipSpace)
	_, e.positioned = targets.(PositionedSpace)
	_, timed := tr.(TimedTransport)
	e.logical = e.vclk != nil && timed && e.positioned

	e.workers = cfg.Workers
	if e.shardable == nil {
		// A plain TargetSpace cannot be split across workers, nor walked a
		// second time for a retry pass.
		e.workers = 1
		e.cfg.Retries = 0
	}
	e.shardSent = make([]atomic.Uint64, e.workers)
	e.shardDone = make([]atomic.Bool, e.workers)
	e.metrics = newScanMetrics(cfg.Obs, e.cfg.Clock, e.workers)
	if cfg.Obs != nil {
		e.sendLog = make([][]sendRec, e.workers)
	}
	return e
}

// run executes every pass of the campaign. The caller closes the transport
// and joins the capture goroutine afterwards, on success and failure alike.
// Cancelling ctx stops every worker at its next loop iteration and makes
// run return ctx's error.
func (e *engine) run(ctx context.Context, res *Result) error {
	if ctx.Done() != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				e.fail(ctx.Err())
			case <-stop:
			}
		}()
	}
	e.captureWG.Add(1)
	go e.capture()

	passStart := res.Started
	for pass := 0; pass <= e.cfg.Retries; pass++ {
		e.pass.Store(int64(pass))
		var skip map[netip.Addr]struct{}
		if pass > 0 {
			// The quiesce barrier after the previous pass made this
			// snapshot complete, so the retry set is exact (and, under the
			// virtual clock, deterministic).
			skip = e.snapshotResponders()
		}
		shards, err := e.passShards()
		if err != nil {
			return err
		}
		passSpan := e.metrics.tracer.Start("scan.pass", obs.L("pass", strconv.Itoa(pass)))
		e.runPass(pass, shards, skip, passStart)
		if err := e.sendError(); err != nil {
			return err
		}
		var slots uint64
		if ps, ok := e.targets.(PositionedSpace); ok {
			// Slots is invariant under consumption (shards are cut from the
			// caller's unconsumed space), so the caller's space reports the
			// full pass timeline.
			slots = ps.Slots()
		}
		if rs, ok := e.targets.(RootedSpace); ok {
			// When the caller's space is itself a shard of a larger campaign
			// (a vantage slice of a distributed scan), the pass timeline must
			// span the root walk: probe slots index into the root cycle, and
			// the next pass starts only after every sibling shard's window.
			slots = rs.RootSlots()
		}
		passStart = e.endPass(passStart, slots)
		e.quiesce()
		passSpan.End()
		e.metrics.passes.Inc()
		e.observePassRTTs()
		e.observeDrift()
	}
	return nil
}

// passShards builds one fresh walk per worker. Shards are cut from the
// caller's (unconsumed) space, so each pass re-walks the same permutation.
func (e *engine) passShards() ([]TargetSpace, error) {
	if e.shardable == nil {
		return []TargetSpace{e.targets}, nil
	}
	shards := make([]TargetSpace, e.workers)
	for i := range shards {
		s, err := e.shardable.Shard(i, e.workers)
		if err != nil {
			return nil, fmt.Errorf("scanner: sharding targets: %w", err)
		}
		shards[i] = s
	}
	return shards, nil
}

// runPass fans the shards out to workers and waits for them.
func (e *engine) runPass(pass int, shards []TargetSpace, skip map[netip.Addr]struct{}, passStart time.Time) {
	var wg sync.WaitGroup
	coordinate := !e.logical && e.vclk != nil && e.workers > 1
	for i, shard := range shards {
		e.shardDone[i].Store(false)
		wg.Add(1)
		if coordinate {
			// Register pacing sleepers up front so the virtual clock only
			// advances when the whole group is blocked: N workers advance
			// the timeline like N parallel machines, not N times as fast.
			e.vclk.Join()
		}
		go func(i int, shard TargetSpace) {
			defer wg.Done()
			if coordinate {
				defer e.vclk.Leave()
			}
			e.worker(pass, i, shard, skip, passStart)
		}(i, shard)
	}
	wg.Wait()
}

// worker walks one shard, gathering targets into Config.Batch sized runs
// and flushing each run through the transport in one batch operation. In
// logical mode the probe timestamps are computed from the targets'
// permutation slots; otherwise the worker paces itself against a deadline
// timeline on the campaign clock, so per-sleep overshoot never accumulates
// into rate sag (see paceBatch).
func (e *engine) worker(pass, shard int, space TargetSpace, skip map[netip.Addr]struct{}, passStart time.Time) {
	defer e.shardDone[shard].Store(true)
	e.metrics.inflight.Add(1)
	defer e.metrics.inflight.Add(-1)
	ps, _ := space.(PositionedSpace)

	dsts := make([]netip.Addr, 0, e.cfg.Batch)
	var ats []time.Time
	if e.logical {
		ats = make([]time.Time, 0, e.cfg.Batch)
	}
	// due is the worker's ideal send timeline: after n probes it should be
	// n*Workers/Rate into the pass. Sleeping to a deadline rather than for a
	// fixed duration carries any sleep overshoot into the next batch's
	// sleep, so the realized rate tracks Config.Rate on long passes.
	due := e.cfg.Clock.Now()
	exhausted := false
	for !exhausted {
		select {
		case <-e.cancel:
			return
		default:
		}
		dsts = dsts[:0]
		ats = ats[:0]
		for len(dsts) < e.cfg.Batch {
			var (
				addr netip.Addr
				pos  uint64
				ok   bool
			)
			if ps != nil {
				addr, pos, ok = ps.NextPos()
			} else {
				addr, ok = space.Next()
			}
			if !ok {
				exhausted = true
				break
			}
			if skip != nil {
				if _, responded := skip[addr]; responded {
					// A skipped target still owns its slot in the logical
					// timeline, which keeps retry timestamps deterministic.
					continue
				}
			}
			dsts = append(dsts, addr)
			if e.logical {
				ats = append(ats, passStart.Add(e.slotOffset(pos)))
			}
		}
		if len(dsts) == 0 {
			break
		}
		if !e.sendRun(shard, pass, dsts, ats) {
			return
		}
		if !e.logical {
			due = e.paceBatch(due, len(dsts))
		}
	}
	if !e.logical {
		e.observePaceLag(due)
	}
}

// sendRun flushes one gathered batch through the transport, retrying
// transient errnos with bounded backoff and resuming from the first unsent
// destination after a partial send. It returns false when the campaign must
// stop (cancellation, a non-transient error, or a persistent stall).
func (e *engine) sendRun(shard, pass int, dsts []netip.Addr, ats []time.Time) bool {
	backoff := sendBackoffBase
	stalls := 0
	for len(dsts) > 0 {
		select {
		case <-e.cancel:
			return false
		default:
		}
		n, err := e.dispatchSend(shard, dsts, ats)
		if n == 0 && err == nil {
			// Defensive: a batch transport must report an error when it
			// accepts nothing, or the retry loop could spin.
			err = io.ErrNoProgress
		}
		if n > 0 {
			e.noteSentBatch(shard, pass, n)
			dsts = dsts[n:]
			if e.logical {
				ats = ats[n:]
			}
			stalls = 0
			backoff = sendBackoffBase
		}
		if err == nil {
			continue
		}
		e.sendErrs.Add(1)
		e.metrics.sendErrs.Inc()
		if len(dsts) == 0 {
			// A transport error with every destination already accepted:
			// nothing left to retry.
			return true
		}
		if !TransientSendError(err) {
			e.fail(fmt.Errorf("scanner: sending to %v: %w", dsts[0], err))
			return false
		}
		stalls++
		if stalls >= maxSendStalls {
			e.fail(fmt.Errorf("scanner: sending to %v: transient send errors persisted across %d attempts: %w",
				dsts[0], stalls, err))
			return false
		}
		e.cfg.Clock.Sleep(backoff)
		if backoff < sendBackoffMax {
			backoff *= 2
		}
	}
	return true
}

// dispatchSend hands dsts to the transport in one batch operation,
// returning how many leading destinations were sent.
func (e *engine) dispatchSend(shard int, dsts []netip.Addr, ats []time.Time) (int, error) {
	var (
		n   int
		err error
		at  time.Time
	)
	if e.logical {
		n, err = e.batch.SendBatchAt(dsts, e.probe, ats)
		ats = ats[:n]
	} else {
		if e.sendLog != nil {
			at = e.cfg.Clock.Now()
		}
		n, err = e.batch.SendBatch(dsts, e.probe)
	}
	e.noteBatchOp(n)
	e.noteRTTSends(shard, dsts[:n], ats, at)
	return n, err
}

// paceBatch advances the worker's deadline timeline past a batch of n sent
// probes and sleeps until the timeline is due. When the clock overshoots a
// sleep, the next deadline arrives early and the sleep shrinks — the
// overshoot is carried, not accumulated. A worker that has fallen more than
// maxPaceDebt behind (a retry stall) forgives the excess backlog so the
// catch-up burst stays bounded.
func (e *engine) paceBatch(due time.Time, n int) time.Time {
	due = due.Add(e.paceDuration(n))
	now := e.cfg.Clock.Now()
	if d := due.Sub(now); d > 0 {
		e.cfg.Clock.Sleep(d)
	} else if -d > maxPaceDebt {
		due = now.Add(-maxPaceDebt)
	}
	return due
}

// observePaceLag publishes how far the worker's realized send timeline ended
// up behind its deadline timeline. With deadline pacing this sits at ~0 (one
// sleep's overshoot at most); the duration-per-batch pacer it replaced let
// it grow linearly with pass length.
func (e *engine) observePaceLag(due time.Time) {
	if e.metrics.paceLag == nil {
		return
	}
	e.metrics.paceLag.Set(e.cfg.Clock.Now().Sub(due).Seconds())
}

// endPass advances the campaign clock past the pass's send window plus the
// drain timeout, and returns the start of the next pass's timeline.
func (e *engine) endPass(passStart time.Time, slots uint64) time.Time {
	if e.logical {
		// Workers never slept: reconcile the shared clock with the logical
		// timeline in one deterministic step.
		sendEnd := passStart.Add(e.slotOffset(slots))
		e.vclk.Set(sendEnd)
		e.cfg.Clock.Sleep(e.cfg.Timeout)
		return sendEnd.Add(e.cfg.Timeout)
	}
	// Paced mode: workers already slept through the send window.
	e.cfg.Clock.Sleep(e.cfg.Timeout)
	return e.cfg.Clock.Now()
}

// slotOffset maps a permutation slot to its offset in the pass timeline:
// slot p is probed p/Rate seconds in. Computed without the truncation that
// made per-probe intervals collapse to zero at extreme rates.
func (e *engine) slotOffset(pos uint64) time.Duration {
	rate := uint64(e.cfg.Rate)
	sec := pos / rate
	rem := pos % rate
	return time.Duration(sec)*time.Second + time.Duration(rem*uint64(time.Second)/rate)
}

// paceDuration is how long one worker sleeps after sending n probes so the
// aggregate across Workers matches Config.Rate. Derived from Rate directly
// (n * Workers / Rate seconds); the clamps in fill() keep the arithmetic in
// range.
func (e *engine) paceDuration(n int) time.Duration {
	probes := uint64(n) * uint64(e.workers)
	rate := uint64(e.cfg.Rate)
	sec := probes / rate
	rem := probes % rate
	return time.Duration(sec)*time.Second + time.Duration(rem*uint64(time.Second)/rate)
}

// captureRingLen sizes the capture goroutine's receive ring: large enough
// to amortize the per-batch lock and wakeup over hundreds of datagrams,
// small enough that the ring itself stays cache-resident.
const captureRingLen = 256

// capture drains the transport until Close delivers io.EOF, one RecvBatch
// at a time: one receive operation, one arena pass, one lock acquisition
// and one drain wakeup per batch of datagrams. consumeBatch records each
// batch and maintains the responder set for retry passes.
func (e *engine) capture() {
	defer e.captureWG.Done()
	ring := make([]Datagram, captureRingLen)
	for {
		n, err := e.batch.RecvBatch(ring)
		if n > 0 {
			e.consumeBatch(ring[:n])
			// Clear consumed slots so the ring does not pin released
			// transport buffers or retained payloads.
			for i := 0; i < n; i++ {
				ring[i] = Datagram{}
			}
		}
		if err != nil {
			e.mu.Lock()
			if !errors.Is(err, io.EOF) {
				e.recvErr = err
			}
			e.captureDone = true
			e.drained.Broadcast()
			e.mu.Unlock()
			return
		}
	}
}

// consumeBatch records one batch of received datagrams. When the target
// space supports membership checks, datagrams from sources the campaign
// never probed — spoofed or misrouted off-path junk — are counted and
// released without copying, before they can pollute the result set or the
// retry bookkeeping. Off-path rejection and arena retention run outside the
// lock (compacting the keepers in place), then a single locked section
// appends every keeper, maintains the responder set, and advances the drain
// accounting once for the whole batch.
func (e *engine) consumeBatch(ds []Datagram) {
	var rejected uint64
	kept := 0
	for i := range ds {
		d := ds[i]
		if e.member != nil && !e.member.Contains(d.Src) {
			if e.releaser != nil {
				e.releaser.ReleasePayload(d.Payload)
			}
			rejected++
			continue
		}
		if e.releaser != nil {
			retained := e.arena.copyOf(d.Payload)
			e.releaser.ReleasePayload(d.Payload)
			d.Payload = retained
		}
		ds[kept] = d
		kept++
	}
	e.mu.Lock()
	for _, d := range ds[:kept] {
		if len(e.respCur) == cap(e.respCur) {
			if e.respCur != nil {
				e.respChunks = append(e.respChunks, e.respCur)
			}
			e.respCur = make([]Response, 0, respChunkLen)
		}
		e.respCur = append(e.respCur, Response{Src: d.Src, Payload: d.Payload, At: d.At})
		e.responders[d.Src] = struct{}{}
	}
	// Off-path rejects were still consumed from the transport's queue, so
	// the quiesce barrier counts them too.
	e.consumed += uint64(kept) + rejected
	e.drained.Broadcast()
	e.mu.Unlock()
	if rejected > 0 {
		e.offPath.Add(rejected)
		e.metrics.offPath.Add(rejected)
	}
	if kept > 0 {
		e.received.Add(uint64(kept))
		e.metrics.received.Add(uint64(kept))
	}
}

// quiesce blocks until the capture goroutine has consumed every response
// the transport has queued so far. Without a ResponseCounter transport the
// drain timeout is the only barrier, and the responder snapshot is best
// effort (fine for real networks, where in-flight loss is inherent).
func (e *engine) quiesce() {
	rc, ok := e.tr.(ResponseCounter)
	if !ok {
		return
	}
	want := rc.QueuedResponses()
	e.mu.Lock()
	for e.consumed < want && !e.captureDone {
		e.drained.Wait()
	}
	e.mu.Unlock()
}

func (e *engine) snapshotResponders() map[netip.Addr]struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := make(map[netip.Addr]struct{}, len(e.responders))
	for a := range e.responders {
		snap[a] = struct{}{}
	}
	return snap
}

// fail records the first send error and cancels the remaining workers.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
	e.cancelOnce.Do(func() { close(e.cancel) })
}

func (e *engine) sendError() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}
