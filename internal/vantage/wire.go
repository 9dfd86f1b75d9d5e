// Package vantage implements distributed multi-vantage scanning: a campaign
// coordinator that leases ZMap-style shard ranges to vantage nodes, vantage
// workers that run the scanner engine over their leased shards and stream
// partial results home, and a deterministic merge layer that folds the
// partials into a campaign byte-identical to a single-process scan of the
// same seed and configuration (DESIGN.md §14).
//
// This file holds the protocol's message types and their Append/Parse
// pairs; frames and field encodings are internal/wire's.
package vantage

import (
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/wire"
)

// Frame types. The numbering is part of the protocol; append, never renumber.
const (
	frameHello        byte = 1 // vantage -> coordinator: introduce yourself
	frameCampaign     byte = 2 // coordinator -> vantage: campaign parameters
	frameLease        byte = 3 // coordinator -> vantage: scan this shard/viewpoint
	frameHeartbeat    byte = 4 // vantage -> coordinator: still alive, still scanning
	framePartial      byte = 5 // vantage -> coordinator: a chunk of captured responses
	frameShardDone    byte = 6 // vantage -> coordinator: lease finished, counters attached
	frameCampaignDone byte = 7 // coordinator -> vantage: no more work, disconnect
)

// protocolVersion is echoed in Hello so a coordinator can reject nodes built
// against an incompatible codec.
const protocolVersion = 1

// partialChunk is how many responses a vantage packs per Partial frame,
// which keeps well-formed frames far below wire.MaxFrame.
const partialChunk = 512

// Hello introduces a vantage node to the coordinator.
type Hello struct {
	Name    string
	Version uint32
}

// CampaignSpec carries everything a vantage needs to reconstruct the exact
// campaign locally: the simulated world, the fault layer, and the scanner
// configuration. Determinism contract: two vantage processes given the same
// spec and the same lease produce byte-identical partial results.
type CampaignSpec struct {
	// CampaignSeed seeds the target permutation and probe IDs.
	CampaignSeed int64
	// SimSeed seeds the netsim world the vantage scans; SimFull selects the
	// full-size world (netsim.DefaultConfig) over the tiny one.
	SimSeed int64
	SimFull bool
	// ScanDay is how many days after the world's start time the campaign
	// clock begins, and ScanEpochs is how many BeginScan generations have
	// elapsed — together they pin the world to one deterministic epoch.
	ScanDay    int
	ScanEpochs int
	// Scanner engine knobs (scanner.Config).
	Rate    int
	Batch   int
	Workers int
	Retries int
	Timeout time.Duration
	// TotalShards is the campaign's shard count; leases reference shards
	// in [0, TotalShards).
	TotalShards int
	// Faults is the base path-fault profile; each vantage derives its own
	// viewpoint profile from it. Nil means a clean path.
	Faults *netsim.FaultProfile
}

// Lease assigns one unit of work. Epoch is globally unique across the
// campaign and increases every time a unit is (re-)leased, so stale partials
// from a vantage presumed dead are discarded by epoch, not by guesswork.
type Lease struct {
	Epoch     uint64
	Shard     int
	Viewpoint int
}

// Heartbeat reports liveness while a lease is in flight. Epoch names the
// lease being worked (0 when idle).
type Heartbeat struct {
	Epoch uint64
}

// Partial streams a chunk of captured responses for a lease.
type Partial struct {
	Epoch     uint64
	Shard     int
	Viewpoint int
	Responses []scanner.Response
}

// ShardDone closes out a lease with the shard's campaign counters. The
// responses themselves arrived in preceding Partial frames.
type ShardDone struct {
	Epoch      uint64
	Shard      int
	Viewpoint  int
	Sent       uint64
	Retried    uint64
	OffPath    uint64
	ProbeMsgID int64
	Started    time.Time
	Finished   time.Time
}

// AppendHello encodes h into b.
func AppendHello(b []byte, h Hello) []byte {
	b = wire.AppendU32(b, h.Version)
	return wire.AppendStr16(b, h.Name)
}

// ParseHello decodes a Hello frame body.
func ParseHello(body []byte) (Hello, error) {
	r := wire.NewReader(body)
	var h Hello
	h.Version = r.U32()
	h.Name = r.Str16()
	return h, r.Done()
}

// AppendCampaignSpec encodes spec into b.
func AppendCampaignSpec(b []byte, spec CampaignSpec) []byte {
	b = wire.AppendI64(b, spec.CampaignSeed)
	b = wire.AppendI64(b, spec.SimSeed)
	b = wire.AppendU32(b, uint32(spec.ScanDay))
	b = wire.AppendU32(b, uint32(spec.ScanEpochs))
	b = wire.AppendU32(b, uint32(spec.Rate))
	b = wire.AppendU32(b, uint32(spec.Batch))
	b = wire.AppendU32(b, uint32(spec.Workers))
	b = wire.AppendU32(b, uint32(spec.Retries))
	b = wire.AppendI64(b, int64(spec.Timeout))
	b = wire.AppendU32(b, uint32(spec.TotalShards))
	b = wire.AppendBool(b, spec.SimFull)
	b = wire.AppendBool(b, spec.Faults != nil)
	if spec.Faults == nil {
		return b
	}
	f := spec.Faults
	b = wire.AppendF64(b, f.Loss)
	b = wire.AppendF64(b, f.RateLimit)
	b = wire.AppendF64(b, f.Mismatch)
	b = wire.AppendF64(b, f.Duplicate)
	b = wire.AppendU32(b, uint32(f.DupCopies))
	b = wire.AppendF64(b, f.Truncate)
	b = wire.AppendF64(b, f.Corrupt)
	b = wire.AppendF64(b, f.OffPath)
	b = wire.AppendI64(b, int64(f.Jitter))
	return wire.AppendF64(b, f.SendErr)
}

// ParseCampaignSpec decodes a Campaign frame body.
func ParseCampaignSpec(body []byte) (CampaignSpec, error) {
	r := wire.NewReader(body)
	var spec CampaignSpec
	spec.CampaignSeed = r.I64()
	spec.SimSeed = r.I64()
	spec.ScanDay = int(r.U32())
	spec.ScanEpochs = int(r.U32())
	spec.Rate = int(r.U32())
	spec.Batch = int(r.U32())
	spec.Workers = int(r.U32())
	spec.Retries = int(r.U32())
	spec.Timeout = time.Duration(r.I64())
	spec.TotalShards = int(r.U32())
	spec.SimFull = r.Bool()
	if r.Bool() {
		f := &netsim.FaultProfile{}
		f.Loss = r.F64()
		f.RateLimit = r.F64()
		f.Mismatch = r.F64()
		f.Duplicate = r.F64()
		f.DupCopies = int(r.U32())
		f.Truncate = r.F64()
		f.Corrupt = r.F64()
		f.OffPath = r.F64()
		f.Jitter = time.Duration(r.I64())
		f.SendErr = r.F64()
		spec.Faults = f
	}
	return spec, r.Done()
}

// AppendLease encodes l into b.
func AppendLease(b []byte, l Lease) []byte {
	b = wire.AppendU64(b, l.Epoch)
	b = wire.AppendU32(b, uint32(l.Shard))
	return wire.AppendU32(b, uint32(l.Viewpoint))
}

// ParseLease decodes a Lease frame body.
func ParseLease(body []byte) (Lease, error) {
	r := wire.NewReader(body)
	var l Lease
	l.Epoch = r.U64()
	l.Shard = int(r.U32())
	l.Viewpoint = int(r.U32())
	return l, r.Done()
}

// AppendHeartbeat encodes h into b.
func AppendHeartbeat(b []byte, h Heartbeat) []byte {
	return wire.AppendU64(b, h.Epoch)
}

// ParseHeartbeat decodes a Heartbeat frame body.
func ParseHeartbeat(body []byte) (Heartbeat, error) {
	r := wire.NewReader(body)
	h := Heartbeat{Epoch: r.U64()}
	return h, r.Done()
}

// AppendPartial encodes p into b. Callers chunk Responses at partialChunk
// so a frame never approaches wire.MaxFrame.
func AppendPartial(b []byte, p Partial) []byte {
	b = wire.AppendU64(b, p.Epoch)
	b = wire.AppendU32(b, uint32(p.Shard))
	b = wire.AppendU32(b, uint32(p.Viewpoint))
	b = wire.AppendU32(b, uint32(len(p.Responses)))
	for _, resp := range p.Responses {
		b = wire.AppendTime(b, resp.At)
		b = wire.AppendAddr(b, resp.Src)
		b = wire.AppendBytes32(b, resp.Payload)
	}
	return b
}

// ParsePartial decodes a Partial frame body. Payloads are copied out of the
// body, so the caller owns them outright.
func ParsePartial(body []byte) (Partial, error) {
	r := wire.NewReader(body)
	var p Partial
	p.Epoch = r.U64()
	p.Shard = int(r.U32())
	p.Viewpoint = int(r.U32())
	// Each response costs at least 13 bytes on the wire (time + minimal
	// addr + empty payload).
	if n := r.Count(13); n > 0 {
		p.Responses = make([]scanner.Response, 0, n)
		for i := 0; i < n; i++ {
			var resp scanner.Response
			resp.At = r.Time()
			resp.Src = r.Addr()
			resp.Payload = r.Bytes32()
			p.Responses = append(p.Responses, resp)
		}
	}
	if err := r.Done(); err != nil {
		return Partial{}, err
	}
	return p, nil
}

// AppendShardDone encodes d into b.
func AppendShardDone(b []byte, d ShardDone) []byte {
	b = wire.AppendU64(b, d.Epoch)
	b = wire.AppendU32(b, uint32(d.Shard))
	b = wire.AppendU32(b, uint32(d.Viewpoint))
	b = wire.AppendU64(b, d.Sent)
	b = wire.AppendU64(b, d.Retried)
	b = wire.AppendU64(b, d.OffPath)
	b = wire.AppendI64(b, d.ProbeMsgID)
	b = wire.AppendTime(b, d.Started)
	return wire.AppendTime(b, d.Finished)
}

// ParseShardDone decodes a ShardDone frame body.
func ParseShardDone(body []byte) (ShardDone, error) {
	r := wire.NewReader(body)
	var d ShardDone
	d.Epoch = r.U64()
	d.Shard = int(r.U32())
	d.Viewpoint = int(r.U32())
	d.Sent = r.U64()
	d.Retried = r.U64()
	d.OffPath = r.U64()
	d.ProbeMsgID = r.I64()
	d.Started = r.Time()
	d.Finished = r.Time()
	return d, r.Done()
}
