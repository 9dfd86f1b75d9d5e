package store

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"snmpv3fp/internal/probe"
)

// EvidenceSample is one non-SNMP protocol observation bound for the store:
// the probe module's alias key for an address, as collected by
// probe.Collect. It persists in the same sample schema as SNMPv3
// observations (the key rides in the EngineID bytes, tagged by Protocol) but
// stays out of every SNMPv3-specific derived structure — the engine index,
// the incremental alias pipeline, the default /v1/ip history.
type EvidenceSample struct {
	IP netip.Addr
	// Key is the module's device-identity key; "" when the response
	// carried no alias-usable identity (still stored, for coverage
	// accounting).
	Key          string
	ReceivedAt   time.Time
	Packets      int
	Inconsistent bool
}

// EvidenceFromCampaign converts a protocol campaign into store-ready
// evidence samples, in address order (deterministic segment contents).
func EvidenceFromCampaign(c *probe.Campaign) []EvidenceSample {
	ips := c.SortedIPs()
	out := make([]EvidenceSample, 0, len(ips))
	for _, ip := range ips {
		sg := c.ByIP[ip]
		out = append(out, EvidenceSample{
			IP:           ip,
			Key:          sg.Key,
			ReceivedAt:   sg.ReceivedAt,
			Packets:      sg.Packets,
			Inconsistent: sg.Inconsistent,
		})
	}
	return out
}

// IngestEvidence adds one protocol's alias evidence to the store's current
// campaign (it does not begin one: evidence accompanies the SNMPv3 campaign
// already ingested). Samples are logged, fsynced and flushed with the same
// batching and durability contract as Ingest; re-ingesting a protocol for
// the same campaign supersedes per (IP, campaign, protocol). The samples
// slice must be in address order (EvidenceFromCampaign's output is).
func (s *Store) IngestEvidence(ctx context.Context, protocol string, samples []EvidenceSample) error {
	if protocol == "" {
		return fmt.Errorf("store: evidence needs a protocol tag (\"\" is reserved for SNMPv3 samples)")
	}
	span := s.tracer.Start("store.ingest_evidence")
	defer span.End()
	for i := 0; i < len(samples); {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		if s.campaign == 0 {
			s.mu.Unlock()
			return ErrNoCampaign
		}
		if err := s.usableLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
		batch := ingestCheckEvery
		if room := s.opt.FlushThreshold - s.mem.len(); room < batch {
			batch = room
		}
		end := i + batch
		if end > len(samples) {
			end = len(samples)
		}
		s.mem.reserve(end - i)
		for ; i < end; i++ {
			s.addEvidenceLocked(protocol, &samples[i])
		}
		needFlush := s.mem.len() >= s.opt.FlushThreshold
		wf, off, err := s.commitLocked()
		if err == nil && needFlush {
			err = s.freezeLocked()
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if wf != nil {
			if err := wf.sync(s.d, off); err != nil {
				return s.fail(err)
			}
		}
		if needFlush {
			if err := s.flushPending(); err != nil {
				return err
			}
		}
	}
	return nil
}

// addEvidenceLocked mirrors addLocked for non-SNMP samples: WAL + memtable
// only. Evidence deliberately skips known/engines and the prev/cur/aidx
// alias state — those are SNMPv3 derived structures, and
// rebuildDerived's replay skips Protocol != "" samples to match.
func (s *Store) addEvidenceLocked(protocol string, e *EvidenceSample) {
	s.seq++
	sm := Sample{
		IP:           e.IP,
		Campaign:     s.campaign,
		Seq:          s.seq,
		Protocol:     protocol,
		ReceivedAt:   e.ReceivedAt,
		Packets:      e.Packets,
		Inconsistent: e.Inconsistent,
	}
	if e.Key != "" {
		sm.EngineID = []byte(e.Key)
	}
	if s.d != nil {
		s.walBuf = appendWALSample(s.walBuf, &sm)
	}
	s.mem.add(sm)
	s.ingested++
	s.mutateLocked()
}
