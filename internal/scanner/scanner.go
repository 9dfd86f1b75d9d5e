package scanner

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"sort"
	"time"

	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/snmp"
	"snmpv3fp/internal/vclock"
)

// Transport carries probe datagrams to targets and responses back. The UDP
// implementation in this package talks to real sockets; netsim provides an
// in-memory implementation for Internet-scale simulated campaigns.
type Transport interface {
	// Send transmits one probe payload to dst.
	Send(dst netip.Addr, payload []byte) error
	// Recv blocks for the next response datagram. It returns io.EOF after
	// Close once all pending responses are delivered.
	Recv() (src netip.Addr, payload []byte, at time.Time, err error)
	// Close releases the transport; subsequent Recv calls drain and then
	// report io.EOF.
	Close() error
}

// TimedTransport is a Transport that can emit a probe at a caller-chosen
// logical instant. Simulated transports implement it so the engine can
// schedule every probe's virtual send time from its permutation slot: the
// timestamp becomes a pure function of the seed, which is what keeps
// multi-worker virtual campaigns bit-identical to single-worker ones.
type TimedTransport interface {
	Transport
	// SendAt transmits one probe payload to dst at logical time at.
	SendAt(dst netip.Addr, payload []byte, at time.Time) error
}

// PayloadReleaser is implemented by transports whose Recv hands out payloads
// backed by reusable buffers. After a payload has been parsed or copied, the
// consumer returns it with ReleasePayload and must not touch it again; the
// transport is then free to reuse the backing buffer for a later datagram.
// The engine copies retained responses out of transport buffers and releases
// them; consumers that never release simply leave the buffers to the GC.
type PayloadReleaser interface {
	// ReleasePayload returns a payload obtained from Recv to the transport.
	ReleasePayload(p []byte)
}

// ResponseCounter is implemented by transports that can report how many
// response datagrams they have queued for delivery so far. The engine uses
// it between passes to wait until the capture goroutine has consumed every
// queued response, so the retry pass sees an exact non-responder set.
type ResponseCounter interface {
	// QueuedResponses returns the total number of response datagrams queued
	// for Recv since the transport was opened.
	QueuedResponses() uint64
}

// Response is one captured datagram.
type Response struct {
	Src     netip.Addr
	Payload []byte
	At      time.Time
}

// Config tunes a campaign.
type Config struct {
	// Rate is the aggregate probe rate in packets per second (the paper
	// probes IPv4 at 5 kpps and IPv6 at 20 kpps), split evenly across the
	// workers. Clamped to [1, 1e9].
	Rate int
	// Batch is how many probes each worker sends between pacing sleeps.
	Batch int
	// Timeout is the drain period after the last probe of each pass.
	Timeout time.Duration
	// Clock paces the campaign; defaults to the wall clock.
	Clock vclock.Clock
	// Seed randomizes probe IDs.
	Seed int64
	// Workers is the number of concurrent send goroutines; each walks its
	// own ZMap-style shard of the target space with its own token-bucket
	// pacing at Rate/Workers. Defaults to 1. Clamped to 1 when the target
	// space does not implement ShardableSpace. Under the virtual clock,
	// results are identical for any worker count.
	Workers int
	// Retries is how many extra passes re-probe the targets that have not
	// responded by the end of the previous pass's drain window (the
	// paper's §4.2 loss handling). Requires a ShardableSpace; clamped to 0
	// otherwise.
	Retries int
	// Progress, when non-nil, receives campaign statistics snapshots
	// roughly every ProgressEvery probes and once at completion. It is
	// never called concurrently with itself.
	Progress func(Snapshot)
	// ProgressEvery is the number of probes between Progress callbacks
	// (default 65536).
	ProgressEvery int
	// Obs, when non-nil, receives the campaign's metrics: probe/retry/
	// response counters (total and per shard), an in-flight worker gauge,
	// a probe RTT histogram, virtual-clock drift, and scan.campaign /
	// scan.pass spans timed on the campaign clock (see DESIGN.md §10).
	// Metrics never perturb results: simulated campaigns stay
	// byte-identical across worker counts with a registry attached. RTT
	// accounting keeps a per-pass send log (one small record per probe),
	// so leave Obs nil for Internet-scale real scans on tight memory.
	Obs *obs.Registry
	// Protocols selects which probe modules a multi-protocol sweep runs
	// (see internal/probe.ScanProtocols); empty means SNMPv3 discovery
	// only. The engine itself ignores the field — each module's campaign
	// runs through ScanProbe with that module's payload.
	Protocols []string
}

const (
	// maxRate caps Rate at one probe per nanosecond: beyond that pacing
	// arithmetic degenerates (the pre-clamp code silently disabled pacing
	// because the per-probe interval truncated to zero).
	maxRate = int(time.Second) // 1e9 pps
	// maxBatch and maxWorkers bound the pacing arithmetic so duration
	// computations cannot overflow int64 nanoseconds.
	maxBatch   = 1 << 20
	maxWorkers = 4096
)

func (c *Config) fill() {
	if c.Rate <= 0 {
		c.Rate = 5000
	}
	if c.Rate > maxRate {
		c.Rate = maxRate
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Batch > maxBatch {
		c.Batch = maxBatch
	}
	if c.Timeout <= 0 {
		c.Timeout = 8 * time.Second
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Workers > maxWorkers {
		c.Workers = maxWorkers
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 65536
	}
}

// Result summarizes a campaign.
type Result struct {
	// Sent counts every probe transmitted, retries included.
	Sent uint64
	// Retried counts the probes re-sent by retry passes.
	Retried uint64
	// OffPath counts response datagrams rejected because their source was
	// never probed (requires a MembershipSpace target space; 0 otherwise).
	// Rejected datagrams do not appear in Responses.
	OffPath uint64
	// ProbeMsgID is the msgID carried by every probe of the campaign.
	// Well-behaved agents echo it in their reports, so collectors can
	// reject responses whose echoed ID does not match the probe slot
	// (corrupted or forged datagrams). 0 disables that check.
	ProbeMsgID int64
	// Responses holds every captured datagram in canonical order (receive
	// time, then source, then payload) so a campaign's result is
	// reproducible regardless of worker scheduling.
	Responses []Response
	Started   time.Time
	Finished  time.Time
}

// ProbeSpec is the probe a campaign sends: one stateless payload for every
// target (as in ZMap, per-target state would defeat the point) plus the
// identity value well-behaved agents echo back. Probe modules
// (internal/probe) build specs; the engine is protocol-agnostic and treats
// the payload as opaque bytes.
type ProbeSpec struct {
	// Payload is the wire bytes sent to every target.
	Payload []byte
	// Ident is the campaign identity embedded in Payload (SNMPv3 msgID,
	// ICMP identifier+sequence, NTP sequence). It lands in
	// Result.ProbeMsgID so collectors can reject responses whose echoed
	// identity does not match the campaign. 0 disables that check.
	Ident int64
}

// ScanContext runs one SNMPv3 discovery campaign. It is a thin wrapper
// over [ScanProbe] with the SNMPv3 discovery module's probe spec, kept
// byte-identical to the pre-module engine: same payload bytes, same
// msgID derivation, same engine path.
func ScanContext(ctx context.Context, tr Transport, targets TargetSpace, cfg Config) (*Result, error) {
	// Responses are matched by source address, and the echoed msgID lets
	// collectors reject forgeries.
	probeMsgID := cfg.Seed & 0x7FFFFFFF
	probe := snmp.AppendDiscoveryRequest(nil, probeMsgID, (cfg.Seed*2654435761)&0x7FFFFFFF)
	return ScanProbe(ctx, tr, targets, cfg, ProbeSpec{Payload: probe, Ident: probeMsgID})
}

// ScanProbe runs one campaign with an arbitrary probe payload: N worker
// goroutines walk disjoint shards of the target space in permuted order,
// collectively pacing to the configured aggregate rate and sending
// spec.Payload to every target, while a capture goroutine collects every
// response until the post-send timeout. Optional retry passes re-probe the
// remaining non-responders.
//
// Cancelling ctx drains every worker at its next loop iteration. The
// returned error then wraps ctx's error, and — unlike other failures — the
// Result still carries the partial campaign's accounting (probes sent,
// responses captured so far), so a cancelled campaign remains auditable.
//
// The transport is closed on every exit path, including mid-campaign send
// failures and cancellation, so the capture goroutine never leaks.
func ScanProbe(ctx context.Context, tr Transport, targets TargetSpace, cfg Config, spec ProbeSpec) (*Result, error) {
	cfg.fill()
	e := newEngine(tr, targets, cfg, spec.Payload)
	campaignSpan := e.metrics.tracer.Start("scan.campaign")
	res := &Result{Started: cfg.Clock.Now()}
	runErr := e.run(ctx, res)
	// Every exit path releases the transport and joins the capture
	// goroutine; the capture unblocks on the io.EOF that Close guarantees.
	closeErr := e.tr.Close()
	e.captureWG.Wait()
	campaignSpan.End()
	e.observeDrift()
	if err := errors.Join(runErr, closeErr, e.recvErr); err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// Partial-campaign accounting survives cancellation.
			e.fillResult(res, spec.Ident)
			return res, err
		}
		return nil, err
	}
	e.fillResult(res, spec.Ident)
	if size := e.targets.Size(); size > uint64(len(e.responders)) {
		e.metrics.timeouts.Add(size - uint64(len(e.responders)))
	}
	e.fireProgress(true)
	return res, nil
}

// fillResult copies the engine's accounting into res. Only called after
// the capture goroutine has been joined, so the fields are quiescent.
func (e *engine) fillResult(res *Result, probeMsgID int64) {
	total := len(e.respCur)
	for _, c := range e.respChunks {
		total += len(c)
	}
	out := make([]Response, 0, total)
	for _, c := range e.respChunks {
		out = append(out, c...)
	}
	out = append(out, e.respCur...)
	res.Responses = out
	SortResponses(res.Responses)
	res.Sent = e.sent.Load()
	res.Retried = e.retried.Load()
	res.OffPath = e.offPath.Load()
	res.ProbeMsgID = probeMsgID
	res.Finished = e.cfg.Clock.Now()
}

// SortResponses orders captured datagrams canonically: by receive time,
// then source address, then payload bytes. Arrival order through the shared
// capture channel depends on worker interleaving; the canonical order does
// not, so equal campaigns produce equal Results. Exported for the
// distributed merge layer, which folds per-vantage partial results back
// into this same canonical order.
func SortResponses(rs []Response) {
	sort.SliceStable(rs, func(i, j int) bool {
		if !rs[i].At.Equal(rs[j].At) {
			return rs[i].At.Before(rs[j].At)
		}
		if rs[i].Src != rs[j].Src {
			return rs[i].Src.Less(rs[j].Src)
		}
		return bytes.Compare(rs[i].Payload, rs[j].Payload) < 0
	})
}

// MergeResults folds the partial Results of disjoint shards of one campaign
// into the Result the unsharded campaign would have produced: responses are
// concatenated and re-sorted into canonical order, counters are summed, and
// the campaign window is the union of the parts' windows. All parts must
// come from the same campaign configuration (same seed, so same ProbeMsgID);
// MergeResults does not verify that beyond the msgID.
func MergeResults(parts ...*Result) *Result {
	out := &Result{}
	total := 0
	for _, p := range parts {
		total += len(p.Responses)
	}
	out.Responses = make([]Response, 0, total)
	for i, p := range parts {
		out.Responses = append(out.Responses, p.Responses...)
		out.Sent += p.Sent
		out.Retried += p.Retried
		out.OffPath += p.OffPath
		if i == 0 || p.Started.Before(out.Started) {
			out.Started = p.Started
		}
		if p.Finished.After(out.Finished) {
			out.Finished = p.Finished
		}
		out.ProbeMsgID = p.ProbeMsgID
	}
	SortResponses(out.Responses)
	return out
}
