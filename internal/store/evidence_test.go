package store

import (
	"context"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

func mkEvidence(ip, key string, at time.Time) EvidenceSample {
	return EvidenceSample{IP: netip.MustParseAddr(ip), Key: key, ReceivedAt: at, Packets: 1}
}

func TestSampleEncProtocolRoundtrip(t *testing.T) {
	// One Sample and one arena across iterations, as a segment scan reuses
	// them: each decode must overwrite every field the last one set.
	var out Sample
	var ids idArena
	for _, proto := range []string{"ntp", "", "icmp-ts"} {
		in := Sample{
			IP: netip.MustParseAddr("192.0.2.9"), Campaign: 3, Seq: 17,
			Protocol: proto, EngineID: []byte("ts:be:42"), Boots: 2, EngineTime: 99,
			ReceivedAt: t0, Packets: 2, Inconsistent: proto == "ntp",
		}
		b := appendSampleEnc(nil, &in)
		n, err := decodeSampleEnc(b, &out, &ids)
		if err != nil {
			t.Fatalf("%q: decode: %v", proto, err)
		}
		if n != len(b) {
			t.Errorf("%q: decoded %d of %d bytes", proto, n, len(b))
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%q: roundtrip mismatch:\n in %+v\nout %+v", proto, in, out)
		}
	}
}

// TestIngestEvidenceIsolation pins the schema-v2 contract: evidence samples
// persist and query per protocol, but never leak into the SNMPv3 derived
// state — the default history, the engine index, the alias pipeline.
func TestIngestEvidenceIsolation(t *testing.T) {
	s := mustOpen(t, Options{DisableCompaction: true})
	defer s.Close()
	ctx := context.Background()

	if err := s.IngestEvidence(ctx, "", []EvidenceSample{mkEvidence("192.0.2.1", "x", t0)}); err == nil {
		t.Fatal("empty protocol tag accepted")
	}
	if err := s.IngestEvidence(ctx, "icmp-ts", []EvidenceSample{mkEvidence("192.0.2.1", "x", t0)}); err != ErrNoCampaign {
		t.Fatalf("before BeginCampaign: got %v, want ErrNoCampaign", err)
	}

	id := engID(9, 1, 2, 3, 4)
	if _, err := s.Ingest(ctx, mkCampaign(mkObs("192.0.2.1", id, 3, 100, t0))); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestEvidence(ctx, "icmp-ts", []EvidenceSample{
		mkEvidence("192.0.2.1", "ts:be:7", t0),
		mkEvidence("192.0.2.2", "ts:be:7", t0),
		{IP: netip.MustParseAddr("192.0.2.3"), ReceivedAt: t0, Packets: 1}, // keyless
	}); err != nil {
		t.Fatal(err)
	}
	// Re-ingest supersedes per (IP, campaign, protocol).
	if err := s.IngestEvidence(ctx, "icmp-ts", []EvidenceSample{
		mkEvidence("192.0.2.2", "ts:be:8", t0.Add(time.Minute)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestEvidence(ctx, "ntp", []EvidenceSample{
		mkEvidence("192.0.2.1", "ntp:0xabc", t0),
	}); err != nil {
		t.Fatal(err)
	}

	v := s.Snapshot()
	// Default history stays SNMPv3-only.
	if h := v.History(netip.MustParseAddr("192.0.2.2")); h != nil {
		t.Errorf("evidence-only IP has SNMPv3 history: %+v", h)
	}
	if h := v.History(netip.MustParseAddr("192.0.2.1")); len(h) != 1 || h[0].Protocol != "" {
		t.Errorf("SNMPv3 history polluted: %+v", h)
	}
	// HistoryProtocol filters and supersedes per protocol.
	h := v.HistoryProtocol(netip.MustParseAddr("192.0.2.2"), "icmp-ts")
	if len(h) != 1 || string(h[0].EngineID) != "ts:be:8" {
		t.Errorf("icmp-ts history = %+v, want one superseding ts:be:8 sample", h)
	}
	if h := v.HistoryProtocol(netip.MustParseAddr("192.0.2.1"), "snmpv3"); len(h) != 1 {
		t.Errorf(`HistoryProtocol("snmpv3") = %+v, want the legacy sample`, h)
	}
	// Evidence keys stay out of the engine index.
	if ips := v.DeviceIPs([]byte("ts:be:7")); ips != nil {
		t.Errorf("evidence key in engine index: %v", ips)
	}
	// FusionEvidence groups per protocol, keyless samples excluded.
	fe := v.FusionEvidence(1)
	if got := len(fe["icmp-ts"]["ts:be:7"]); got != 1 {
		t.Errorf("ts:be:7 group has %d IPs, want 1 (supersede)", got)
	}
	if got := len(fe["icmp-ts"]["ts:be:8"]); got != 1 {
		t.Errorf("ts:be:8 group has %d IPs, want 1", got)
	}
	if _, ok := fe["snmpv3"]; !ok {
		t.Error("snmpv3 groups missing from FusionEvidence")
	}
	if _, ok := fe["ntp"]; !ok {
		t.Error("ntp groups missing from FusionEvidence")
	}
	total := 0
	for _, g := range fe["icmp-ts"] {
		total += len(g)
	}
	if total != 2 {
		t.Errorf("icmp-ts grouped %d IPs, want 2 (keyless excluded)", total)
	}
}

// TestEvidenceDurable reopens a durable store and checks evidence samples
// survive recovery without touching the rebuilt SNMPv3 derived state.
func TestEvidenceDurable(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := mustOpen(t, Options{Dir: dir, FlushThreshold: 2, DisableCompaction: true})
	id := engID(9, 1, 2, 3, 4)
	if _, err := s.Ingest(ctx, mkCampaign(mkObs("192.0.2.1", id, 3, 100, t0))); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestEvidence(ctx, "ntp", []EvidenceSample{
		mkEvidence("192.0.2.1", "ntp:0xabc", t0),
		mkEvidence("192.0.2.4", "ntp:0xabc", t0),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir, DisableCompaction: true})
	defer r.Close()
	v := r.Snapshot()
	h := v.HistoryProtocol(netip.MustParseAddr("192.0.2.4"), "ntp")
	if len(h) != 1 || string(h[0].EngineID) != "ntp:0xabc" {
		t.Fatalf("recovered ntp history = %+v", h)
	}
	if h := v.History(netip.MustParseAddr("192.0.2.4")); h != nil {
		t.Errorf("evidence leaked into recovered SNMPv3 history: %+v", h)
	}
	if ips := v.DeviceIPs([]byte("ntp:0xabc")); ips != nil {
		t.Errorf("evidence key in recovered engine index: %v", ips)
	}
	if got := len(v.FusionEvidence(1)["ntp"]["ntp:0xabc"]); got != 2 {
		t.Errorf("recovered ntp group has %d IPs, want 2", got)
	}
}
