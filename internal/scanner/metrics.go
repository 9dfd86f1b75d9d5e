package scanner

import (
	"net/netip"
	"strconv"
	"time"

	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/vclock"
)

// scanMetrics holds the engine's cached metric handles. Every field is
// nil-safe: with no registry configured the handles are nil and each
// instrumentation point costs one nil check.
type scanMetrics struct {
	sent      *obs.Counter
	retried   *obs.Counter
	received  *obs.Counter
	offPath   *obs.Counter
	sendErrs  *obs.Counter
	passes    *obs.Counter
	timeouts  *obs.Counter
	shardSent []*obs.Counter
	inflight  *obs.Gauge
	drift     *obs.Gauge
	paceLag   *obs.Gauge
	rtt       *obs.Histogram
	batchSize *obs.Histogram
	sysSaved  *obs.Counter
	tracer    *obs.Tracer
}

// newScanMetrics registers (or re-attaches to) the scanner metric families.
// The tracer times spans on the campaign clock, so simulated campaigns
// export deterministic span histograms.
func newScanMetrics(reg *obs.Registry, clock vclock.Clock, workers int) *scanMetrics {
	m := &scanMetrics{
		sent:      reg.Counter("snmpfp_scan_probes_sent_total"),
		retried:   reg.Counter("snmpfp_scan_retries_total"),
		received:  reg.Counter("snmpfp_scan_responses_total"),
		offPath:   reg.Counter("snmpfp_scan_offpath_rejected_total"),
		sendErrs:  reg.Counter("snmpfp_scan_send_errors_total"),
		passes:    reg.Counter("snmpfp_scan_passes_total"),
		timeouts:  reg.Counter("snmpfp_scan_unanswered_total"),
		inflight:  reg.Gauge("snmpfp_scan_inflight_workers"),
		drift:     reg.Gauge("snmpfp_scan_vclock_drift_seconds"),
		paceLag:   reg.Gauge("snmpfp_scan_pace_lag_seconds"),
		rtt:       reg.Histogram("snmpfp_scan_probe_rtt_seconds", nil),
		batchSize: reg.Histogram("snmpfp_scan_send_batch_datagrams", obs.ExpBuckets(1, 2, 12)),
		sysSaved:  reg.Counter("snmpfp_scan_batch_syscalls_saved_total"),
		tracer:    obs.NewTracer(reg, clock),
	}
	reg.Help("snmpfp_scan_probes_sent_total", "probes transmitted, retries included")
	reg.Help("snmpfp_scan_retries_total", "probes re-sent by retry passes")
	reg.Help("snmpfp_scan_responses_total", "response datagrams captured")
	reg.Help("snmpfp_scan_offpath_rejected_total", "datagrams rejected: source never probed")
	reg.Help("snmpfp_scan_send_errors_total", "failed Send calls")
	reg.Help("snmpfp_scan_passes_total", "send passes completed (initial sweep + retries)")
	reg.Help("snmpfp_scan_unanswered_total", "targets that never responded by campaign end")
	reg.Help("snmpfp_scan_inflight_workers", "send workers currently running")
	reg.Help("snmpfp_scan_vclock_drift_seconds", "campaign-clock elapsed minus wall elapsed")
	reg.Help("snmpfp_scan_pace_lag_seconds", "per-worker realized send timeline behind the deadline timeline at pass end")
	reg.Help("snmpfp_scan_probe_rtt_seconds", "probe-to-response round-trip time")
	reg.Help("snmpfp_scan_send_batch_datagrams", "datagrams accepted per batch send operation")
	reg.Help("snmpfp_scan_batch_syscalls_saved_total", "per-datagram send operations avoided by batching (n-1 per accepted batch)")
	m.shardSent = make([]*obs.Counter, workers)
	for i := range m.shardSent {
		m.shardSent[i] = reg.Counter("snmpfp_scan_shard_probes_sent_total",
			obs.L("shard", strconv.Itoa(i)))
	}
	reg.Help("snmpfp_scan_shard_probes_sent_total", "per-worker probes transmitted")
	return m
}

// sendRec is one probe transmission, logged per worker (contention-free)
// so pass-end RTT accounting can match responses to their send instants.
type sendRec struct {
	addr netip.Addr
	at   time.Time
}

// noteRTTSends logs a whole batch of transmissions. ats carries per-probe
// logical send instants (logical mode); when ats is nil every probe is logged
// at fallbackAt, the instant the batch call returned.
func (e *engine) noteRTTSends(shard int, dsts []netip.Addr, ats []time.Time, fallbackAt time.Time) {
	if e.sendLog == nil {
		return
	}
	log := e.sendLog[shard]
	for i, dst := range dsts {
		at := fallbackAt
		if ats != nil {
			at = ats[i]
		}
		log = append(log, sendRec{addr: dst, at: at})
	}
	e.sendLog[shard] = log
}

// noteBatchOp records one accepted batch operation: the batch-size histogram
// feeds the pps-vs-batch tuning curve, and every datagram beyond the first
// is one per-datagram send operation (syscall, on real sockets) avoided.
func (e *engine) noteBatchOp(n int) {
	if n <= 0 {
		return
	}
	e.metrics.batchSize.Observe(float64(n))
	if n > 1 {
		e.metrics.sysSaved.Add(uint64(n - 1))
	}
}

// observePassRTTs runs after the pass's quiesce barrier: every response the
// transport queued for this pass has been captured, so matching responses
// against the pass's send log yields exact per-probe round-trip times
// (virtual durations under the virtual clock — deterministic across worker
// counts). Responses predating this pass's probe of the same source (late
// arrivals from the previous pass) would yield non-positive durations and
// are skipped.
func (e *engine) observePassRTTs() {
	if e.sendLog == nil {
		return
	}
	sentAt := make(map[netip.Addr]time.Time)
	for i, log := range e.sendLog {
		for _, r := range log {
			sentAt[r.addr] = r.at
		}
		e.sendLog[i] = nil
	}
	e.mu.Lock()
	// Walk the response chunks from the high-water mark of the previous
	// pass; only this pass's captures are matched against its send log.
	var rtts []time.Duration
	idx := 0
	scan := func(chunk []Response) {
		if idx+len(chunk) <= e.rttMark {
			idx += len(chunk)
			return
		}
		for i := range chunk {
			if idx >= e.rttMark {
				resp := &chunk[i]
				if at, ok := sentAt[resp.Src]; ok {
					if d := resp.At.Sub(at); d > 0 {
						rtts = append(rtts, d)
					}
				}
			}
			idx++
		}
	}
	for _, c := range e.respChunks {
		scan(c)
	}
	scan(e.respCur)
	e.rttMark = idx
	e.mu.Unlock()
	for _, d := range rtts {
		e.metrics.rtt.ObserveDuration(d)
	}
}

// observeDrift publishes how far the campaign clock has run ahead of the
// wall clock — hours-per-second under the virtual clock, ~0 for real scans.
func (e *engine) observeDrift() {
	if e.metrics.drift == nil {
		return
	}
	virtual := e.cfg.Clock.Now().Sub(e.startClock)
	wall := time.Since(e.startWall)
	e.metrics.drift.Set((virtual - wall).Seconds())
}
